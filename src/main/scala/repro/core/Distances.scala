package repro.core

/** The six trajectory distance functions supported by REPOSE (§II, §VI).
  *
  * Each measure has one kernel, an iterative dynamic program (two rolling
  * rows, stack-safe for trajectories up to the paper's 1,000-point cap),
  * bounded by `bound`: it returns the exact distance whenever that is
  * ≤ `bound`, and otherwise a lower bound on it that is > `bound`. A kernel
  * stops early only once its running lower bound is strictly above `bound`,
  * so a distance equal to `bound` is always exact. At the default
  * `bound = +∞` nothing stops early and the result is the exact distance.
  *
  * Points are compared with Euclidean distance in the native (x, y) plane.
  * Hausdorff and Fréchet only take minima and maxima of point distances, and
  * LCSS and EDR only compare them with `eps`, so these work on squared
  * distances and take at most one square root, of the result: `sqrt` is
  * monotone and correctly rounded, so this is bit-identical to comparing the
  * roots. DTW and ERP add distances and keep them.
  */
object Distances {

  // Plain comparisons: no operand is ever NaN or −0.0, so these equal
  // `math.min` and `math.max` without their special cases.
  private def min(x: Double, y: Double): Double = if (x < y) x else y
  private def max(x: Double, y: Double): Double = if (x > y) x else y

  private def sq(p: Point, o: Point): Double = {
    val dx = p.x - o.x; val dy = p.y - o.y
    dx * dx + dy * dy
  }

  /** The largest squared distance s whose root is within `bound`: for every
    * s ≥ 0, `sqrt(s) <= bound` exactly when `s <= sqLimit(bound)`. The
    * rounded `bound * bound` is at most a step or two off it. −1 when no
    * distance is within a negative `bound`.
    */
  private def sqLimit(bound: Double): Double =
    if (!(bound >= 0.0)) -1.0
    else if (bound == Double.PositiveInfinity) bound
    else {
      var s = bound * bound
      while (math.sqrt(s) > bound) s = math.nextDown(s)
      while (math.sqrt(math.nextUp(s)) <= bound) s = math.nextUp(s)
      s
    }

  /** Hausdorff distance (Definition 2): max of directed Hausdorff both ways.
    * The second direction starts from the first one's maximum.
    */
  def hausdorff(a: Array[Point], b: Array[Point], bound: Double = Double.PositiveInfinity): Double = {
    val limit = sqLimit(bound)
    val ab = directedSq(a, b, 0.0, limit)
    math.sqrt(if (ab > limit) ab else directedSq(b, a, ab, limit))
  }

  /** max over p in `a` of min over q in `b` of d(p, q). */
  def directedHausdorff(a: Array[Point], b: Array[Point]): Double =
    math.sqrt(directedSq(a, b, 0.0, Double.PositiveInfinity))

  /** max(`from`, max over p in `a` of min over q in `b` of d(p, q)²). A scan
    * over `b` stops once its minimum is ≤ the running maximum, which it can
    * no longer raise (Taha & Hanbury, TPAMI 2015); the pass stops once the
    * maximum is > `limit`.
    */
  private def directedSq(a: Array[Point], b: Array[Point], from: Double, limit: Double): Double = {
    var worst = from
    var i = 0
    while (i < a.length && worst <= limit) {
      val p = a(i)
      var best = Double.PositiveInfinity
      var j = 0
      while (j < b.length && best > worst) {
        val d = sq(p, b(j))
        if (d < best) best = d
        j += 1
      }
      if (best > worst) worst = best
      i += 1
    }
    worst
  }

  /** Discrete Fréchet distance (Eq. 6). Every coupling crosses every row,
    * so a row's minimum bounds the result from below.
    */
  def frechet(a: Array[Point], b: Array[Point], bound: Double = Double.PositiveInfinity): Double = {
    val limit = sqLimit(bound)
    val m = a.length; val n = b.length
    var prev = new Array[Double](n)
    var cur  = new Array[Double](n)
    var j = 0
    while (j < n) {
      val d = sq(a(0), b(j))
      prev(j) = if (j == 0) d else max(prev(j - 1), d)
      j += 1
    }
    var rowMin = prev(0) // row 0 is non-decreasing
    var i = 1
    while (i < m && rowMin <= limit) {
      cur(0) = max(prev(0), sq(a(i), b(0)))
      rowMin = cur(0)
      j = 1
      while (j < n) {
        val reach = min(min(prev(j - 1), prev(j)), cur(j - 1))
        cur(j) = max(reach, sq(a(i), b(j)))
        if (cur(j) < rowMin) rowMin = cur(j)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    math.sqrt(if (rowMin > limit) rowMin else prev(n - 1))
  }

  /** Dynamic time warping (Eq. 12): sum-based alignment cost. */
  def dtw(a: Array[Point], b: Array[Point], bound: Double = Double.PositiveInfinity): Double = {
    val m = a.length; val n = b.length
    var prev = new Array[Double](n)
    var cur  = new Array[Double](n)
    var j = 0
    while (j < n) {
      prev(j) = (if (j == 0) 0.0 else prev(j - 1)) + a(0).dist(b(j))
      j += 1
    }
    var rowMin = prev(0)
    var i = 1
    while (i < m && rowMin <= bound) {
      cur(0) = prev(0) + a(i).dist(b(0))
      rowMin = cur(0)
      j = 1
      while (j < n) {
        cur(j) = a(i).dist(b(j)) + min(min(prev(j - 1), prev(j)), cur(j - 1))
        if (cur(j) < rowMin) rowMin = cur(j)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    if (rowMin > bound) rowMin else prev(n - 1)
  }

  /** Edit distance with Real Penalty (Chen & Ng 2004): a metric. Aligning a
    * point against the gap element `g` costs d(p, g); substitution costs
    * d(p, q).
    */
  def erp(a: Array[Point], b: Array[Point], g: Point, bound: Double = Double.PositiveInfinity): Double = {
    val m = a.length; val n = b.length
    val gapCostB = b.map(_.dist(g))
    var prev = new Array[Double](n + 1)
    var cur  = new Array[Double](n + 1)
    var j = 1
    prev(0) = 0.0
    while (j <= n) { prev(j) = prev(j - 1) + gapCostB(j - 1); j += 1 }
    var rowMin = 0.0
    var i = 1
    while (i <= m && rowMin <= bound) {
      val gapCostA = a(i - 1).dist(g)
      cur(0) = prev(0) + gapCostA
      rowMin = cur(0)
      j = 1
      while (j <= n) {
        val subst = prev(j - 1) + a(i - 1).dist(b(j - 1))
        val gapA  = prev(j) + gapCostA
        val gapB  = cur(j - 1) + gapCostB(j - 1)
        cur(j) = min(subst, min(gapA, gapB))
        if (cur(j) < rowMin) rowMin = cur(j)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    if (rowMin > bound) rowMin else prev(n)
  }

  /** Longest common subsequence match count: points match when within `eps`. */
  def lcssLength(a: Array[Point], b: Array[Point], eps: Double): Int =
    lcssCount(a, b, eps, Double.PositiveInfinity)

  /** The LCSS match count when `lcssDist` is ≤ `bound`; otherwise an upper
    * bound on it whose distance is > `bound`. After row i the count can
    * still grow by at most m − i. `cur(0)` is never written and stays 0;
    * every other cell is written before it is read.
    */
  private def lcssCount(a: Array[Point], b: Array[Point], eps: Double, bound: Double): Int = {
    val m = a.length; val n = b.length
    val mn = math.min(m, n)
    val epsSq = sqLimit(eps)
    var prev = new Array[Int](n + 1)
    var cur  = new Array[Int](n + 1)
    var i = 1
    while (i <= m) {
      var j = 1
      while (j <= n) {
        cur(j) =
          if (sq(a(i - 1), b(j - 1)) <= epsSq) prev(j - 1) + 1
          else math.max(prev(j), cur(j - 1))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      val reachable = math.min(prev(n) + (m - i), mn)
      if (1.0 - reachable.toDouble / mn > bound) return reachable
      i += 1
    }
    prev(n)
  }

  /** LCSS-derived distance in [0, 1]: 1 − LCSS / min(m, n). Smaller = more
    * similar, so top-k minimizes it (the conventional normalization).
    */
  def lcssDist(a: Array[Point], b: Array[Point], eps: Double, bound: Double = Double.PositiveInfinity): Double =
    1.0 - lcssCount(a, b, eps, bound).toDouble / math.min(a.length, b.length)

  /** Edit Distance on Real sequences (Chen et al. 2005): match (within eps)
    * costs 0, substitution / insertion / deletion cost 1.
    */
  def edr(a: Array[Point], b: Array[Point], eps: Double, bound: Double = Double.PositiveInfinity): Double = {
    val m = a.length; val n = b.length
    val epsSq = sqLimit(eps)
    var prev = new Array[Int](n + 1)
    var cur  = new Array[Int](n + 1)
    var j = 0
    while (j <= n) { prev(j) = j; j += 1 }
    var rowMin = 0
    var i = 1
    while (i <= m && rowMin <= bound) {
      cur(0) = i
      rowMin = i
      j = 1
      while (j <= n) {
        val subcost = if (sq(a(i - 1), b(j - 1)) <= epsSq) 0 else 1
        cur(j) = math.min(prev(j - 1) + subcost, math.min(prev(j) + 1, cur(j - 1) + 1))
        if (cur(j) < rowMin) rowMin = cur(j)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    (if (rowMin > bound) rowMin else prev(n)).toDouble
  }
}
