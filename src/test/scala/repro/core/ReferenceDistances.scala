package repro.core

/** Reference kernels for the property tests: the plain two-rolling-row
  * dynamic programs, with a square root per point pair, no early exit and no
  * inner-loop break. `Distances` must agree with them bit for bit.
  */
object ReferenceDistances {

  /** Hausdorff distance (Definition 2): max of directed Hausdorff both ways. */
  def hausdorff(a: Array[Point], b: Array[Point]): Double =
    math.max(directedHausdorff(a, b), directedHausdorff(b, a))

  /** max over p in `a` of min over q in `b` of d(p, q). */
  def directedHausdorff(a: Array[Point], b: Array[Point]): Double = {
    var worst = 0.0
    var i = 0
    while (i < a.length) {
      var best = Double.MaxValue
      var j = 0
      while (j < b.length) {
        val d = a(i).dist(b(j))
        if (d < best) best = d
        j += 1
      }
      if (best > worst) worst = best
      i += 1
    }
    worst
  }

  /** Discrete Fréchet distance (Eq. 6). */
  def frechet(a: Array[Point], b: Array[Point]): Double = {
    val m = a.length; val n = b.length
    var prev = new Array[Double](n)
    var cur  = new Array[Double](n)
    var j = 0
    while (j < n) {
      val d = a(0).dist(b(j))
      prev(j) = if (j == 0) d else math.max(prev(j - 1), d)
      j += 1
    }
    var i = 1
    while (i < m) {
      cur(0) = math.max(prev(0), a(i).dist(b(0)))
      j = 1
      while (j < n) {
        val reach = math.min(math.min(prev(j - 1), prev(j)), cur(j - 1))
        cur(j) = math.max(reach, a(i).dist(b(j)))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(n - 1)
  }

  /** Dynamic time warping (Eq. 12): sum-based alignment cost. */
  def dtw(a: Array[Point], b: Array[Point]): Double = {
    val m = a.length; val n = b.length
    var prev = new Array[Double](n)
    var cur  = new Array[Double](n)
    var j = 0
    while (j < n) {
      prev(j) = (if (j == 0) 0.0 else prev(j - 1)) + a(0).dist(b(j))
      j += 1
    }
    var i = 1
    while (i < m) {
      cur(0) = prev(0) + a(i).dist(b(0))
      j = 1
      while (j < n) {
        cur(j) = a(i).dist(b(j)) + math.min(math.min(prev(j - 1), prev(j)), cur(j - 1))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(n - 1)
  }

  /** Edit distance with Real Penalty (Chen & Ng 2004): a metric. Aligning a
    * point against the gap element `g` costs d(p, g); substitution costs
    * d(p, q).
    */
  def erp(a: Array[Point], b: Array[Point], g: Point): Double = {
    val m = a.length; val n = b.length
    var prev = new Array[Double](n + 1)
    var cur  = new Array[Double](n + 1)
    var j = 1
    prev(0) = 0.0
    while (j <= n) { prev(j) = prev(j - 1) + b(j - 1).dist(g); j += 1 }
    var i = 1
    while (i <= m) {
      cur(0) = prev(0) + a(i - 1).dist(g)
      j = 1
      while (j <= n) {
        val subst = prev(j - 1) + a(i - 1).dist(b(j - 1))
        val gapA  = prev(j) + a(i - 1).dist(g)
        val gapB  = cur(j - 1) + b(j - 1).dist(g)
        cur(j) = math.min(subst, math.min(gapA, gapB))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(n)
  }

  /** Longest common subsequence match count: points match when within `eps`. */
  def lcssLength(a: Array[Point], b: Array[Point], eps: Double): Int = {
    val m = a.length; val n = b.length
    var prev = new Array[Int](n + 1)
    var cur  = new Array[Int](n + 1)
    var i = 1
    while (i <= m) {
      var j = 1
      while (j <= n) {
        cur(j) =
          if (a(i - 1).dist(b(j - 1)) <= eps) prev(j - 1) + 1
          else math.max(prev(j), cur(j - 1))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      java.util.Arrays.fill(cur, 0)
      i += 1
    }
    prev(n)
  }

  /** LCSS-derived distance in [0, 1]: 1 − LCSS / min(m, n). Smaller = more
    * similar, so top-k minimizes it (the conventional normalization).
    */
  def lcssDist(a: Array[Point], b: Array[Point], eps: Double): Double =
    1.0 - lcssLength(a, b, eps).toDouble / math.min(a.length, b.length)

  /** Edit Distance on Real sequences (Chen et al. 2005): match (within eps)
    * costs 0, substitution / insertion / deletion cost 1.
    */
  def edr(a: Array[Point], b: Array[Point], eps: Double): Double = {
    val m = a.length; val n = b.length
    var prev = new Array[Int](n + 1)
    var cur  = new Array[Int](n + 1)
    var j = 0
    while (j <= n) { prev(j) = j; j += 1 }
    var i = 1
    while (i <= m) {
      cur(0) = i
      j = 1
      while (j <= n) {
        val subcost = if (a(i - 1).dist(b(j - 1)) <= eps) 0 else 1
        cur(j) = math.min(prev(j - 1) + subcost, math.min(prev(j) + 1, cur(j - 1) + 1))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(n).toDouble
  }
}
