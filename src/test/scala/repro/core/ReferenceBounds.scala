package repro.core

import repro.core.search.{BState, Extended}

/** Reference bound kernels for the property tests: the incremental
  * `CompLB` of every measure as it was before the search extended columns in
  * place, with a fresh column per extension, a square root per Hausdorff and
  * Fréchet cell, and d′ decoded from z per cell. `BoundsOps` must give the
  * same `lbO` and `refCore` bit for bit.
  */
object ReferenceBounds {

  trait Kernel {
    def rootState: BState
    def extend(s: BState, z: Int): Extended
  }

  def forMeasure(measure: Measure, grid: ZGrid, q: Array[Point]): Kernel = measure match {
    case repro.core.Hausdorff => new Hausdorff(q, grid)
    case repro.core.Frechet   => new Frechet(q, grid)
    case repro.core.DTW       => new DTW(q, grid)
    case repro.core.ERP(g)    => new ERP(q, grid, g)
    case repro.core.LCSS(e)   => new LCSS(q, grid, e)
    case repro.core.EDR(e)    => new EDR(q, grid, e)
  }

  /** Grid coordinates (cx, cy) of the cell with z-value `z`, one bit pair
    * per level: the inverse of `ZGrid.zOf`.
    */
  def cellOfZ(grid: ZGrid, z: Int): (Int, Int) = {
    val bits = java.lang.Integer.numberOfTrailingZeros(grid.l)
    var cx = 0; var cy = 0
    var b = 0
    while (b < bits) {
      cx |= ((z >> (2 * b + 1)) & 1) << b
      cy |= ((z >> (2 * b)) & 1) << b
      b += 1
    }
    (cx, cy)
  }

  /** Min distance from `q` to the closed rectangle of cell `z`. */
  def cellMinDist(grid: ZGrid, q: Point, z: Int): Double = {
    import grid.{delta, minX, minY}
    val (cx, cy) = cellOfZ(grid, z)
    val x0 = minX + cx * delta; val y0 = minY + cy * delta
    val dx = if (q.x < x0) x0 - q.x else if (q.x > x0 + delta) q.x - (x0 + delta) else 0.0
    val dy = if (q.y < y0) y0 - q.y else if (q.y > y0 + delta) q.y - (y0 + delta) else 0.0
    math.sqrt(dx * dx + dy * dy)
  }

  /** Hausdorff (Alg. 1): state = (r[1..m], c_max). LB_o = max(c_max − √2δ/2, 0)
    * (Eq. 2); refCore = max(max r_i, c_max) = D_H(τ_q, τ*).
    */
  final class Hausdorff(val q: Array[Point], val grid: ZGrid) extends Kernel {
    private val m = q.length
    def rootState: BState = BState(Array.fill(m)(Double.MaxValue), 0.0)
    def extend(s: BState, z: Int): Extended = {
      val p = grid.refPoint(z)
      val r = new Array[Double](m)
      var c = Double.MaxValue
      var rmax = 0.0
      var i = 0
      while (i < m) {
        val d = q(i).dist(p)
        r(i) = math.min(s.arr(i), d)
        if (d < c) c = d
        if (r(i) > rmax) rmax = r(i)
        i += 1
      }
      val cmax = math.max(s.aux, c)
      Extended(BState(r, cmax), math.max(cmax - grid.halfDiag, 0.0), math.max(rmax, cmax))
    }
  }

  /** Discrete Fréchet (Eq. 7–9): state = DP column f[0..m] with boundary
    * f(0) = −∞ at the root (both-empty corner) and +∞ afterwards. LB_o uses the
    * new column's minimum; refCore = f(m) = D_F(τ_q, τ*).
    */
  final class Frechet(val q: Array[Point], val grid: ZGrid) extends Kernel {
    private val m = q.length
    def rootState: BState = {
      val a = Array.fill(m + 1)(Double.MaxValue)
      a(0) = Double.MinValue
      BState(a, 0.0)
    }
    def extend(s: BState, z: Int): Extended = {
      val p = grid.refPoint(z)
      val f = new Array[Double](m + 1)
      f(0) = Double.MaxValue
      var cmin = Double.MaxValue
      var i = 1
      while (i <= m) {
        val d = q(i - 1).dist(p)
        val reach = math.min(math.min(s.arr(i - 1), f(i - 1)), s.arr(i))
        f(i) = math.max(d, reach)
        if (f(i) < cmin) cmin = f(i)
        i += 1
      }
      Extended(BState(f, 0.0), math.max(cmin - grid.halfDiag, 0.0), f(m))
    }
  }

  /** DTW (Eq. 13–15): DP column over d′(q, cell). LB_o = c_min; LB_t = f(m). */
  final class DTW(val q: Array[Point], val grid: ZGrid) extends Kernel {
    private val m = q.length
    def rootState: BState = {
      val a = Array.fill(m + 1)(Double.MaxValue)
      a(0) = 0.0
      BState(a, 0.0)
    }
    def extend(s: BState, z: Int): Extended = {
      val f = new Array[Double](m + 1)
      f(0) = Double.MaxValue
      var cmin = Double.MaxValue
      var i = 1
      while (i <= m) {
        val d = cellMinDist(grid, q(i - 1), z)
        val reach = math.min(math.min(s.arr(i - 1), f(i - 1)), s.arr(i))
        f(i) = if (reach == Double.MaxValue) Double.MaxValue else d + reach
        if (f(i) < cmin) cmin = f(i)
        i += 1
      }
      Extended(BState(f, 0.0), cmin, f(m))
    }
  }

  /** ERP with gap point g: DP column of cost under-estimates. */
  final class ERP(val q: Array[Point], val grid: ZGrid, g: Point) extends Kernel {
    private val m = q.length
    private val gapQ: Array[Double] = q.map(_.dist(g))
    def rootState: BState = {
      val a = new Array[Double](m + 1)
      a(0) = 0.0
      var i = 1
      while (i <= m) { a(i) = a(i - 1) + gapQ(i - 1); i += 1 }
      BState(a, 0.0)
    }
    private def cellGap(z: Int): Double = cellMinDist(grid, g, z)
    def extend(s: BState, z: Int): Extended = {
      val e = new Array[Double](m + 1)
      val cg = cellGap(z)
      e(0) = s.arr(0) + cg
      var cmin = e(0)
      var i = 1
      while (i <= m) {
        val dPrime = cellMinDist(grid, q(i - 1), z)
        val diag = s.arr(i - 1) + dPrime
        val up   = e(i - 1) + math.min(gapQ(i - 1), dPrime)
        val left = s.arr(i) + cg
        e(i) = math.min(diag, math.min(up, left))
        if (e(i) < cmin) cmin = e(i)
        i += 1
      }
      Extended(BState(e, 0.0), cmin, e(m))
    }
  }

  /** LCSS: the column holds an upper bound on the match count. */
  final class LCSS(val q: Array[Point], val grid: ZGrid, eps: Double) extends Kernel {
    private val m = q.length
    def rootState: BState = BState(new Array[Double](m + 1), 0.0)
    def extend(s: BState, z: Int): Extended = {
      val l = new Array[Double](m + 1)
      var i = 1
      while (i <= m) {
        val mt = if (cellMinDist(grid, q(i - 1), z) <= eps) 1.0 else 0.0
        l(i) = math.max(s.arr(i), l(i - 1) + mt)
        i += 1
      }
      Extended(BState(l, 0.0), 0.0, l(m))
    }
  }

  /** EDR: DP column of edit-cost under-estimates. */
  final class EDR(val q: Array[Point], val grid: ZGrid, eps: Double) extends Kernel {
    private val m = q.length
    def rootState: BState = {
      val a = new Array[Double](m + 1)
      var i = 0
      while (i <= m) { a(i) = i.toDouble; i += 1 }
      BState(a, 0.0)
    }
    def extend(s: BState, z: Int): Extended = {
      val e = new Array[Double](m + 1)
      e(0) = s.arr(0)
      var i = 1
      while (i <= m) {
        val c = if (cellMinDist(grid, q(i - 1), z) <= eps) 0.0 else 1.0
        val diag = s.arr(i - 1) + c
        val down = e(i - 1) + c
        val left = s.arr(i)
        e(i) = math.min(diag, math.min(down, left))
        i += 1
      }
      Extended(BState(e, 0.0), 0.0, e(m))
    }
  }
}
