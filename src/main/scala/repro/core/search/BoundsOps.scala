package repro.core.search

import repro.core._

/** Incremental lower-bound state attached to a trie search node.
  *
  * `arr` is the measure-specific intermediate column (Hausdorff: the row
  * minima `r[1..m]`; Fréchet/DTW/ERP/LCSS/EDR: the DP column with a boundary
  * cell at index 0). `aux` carries Hausdorff's running `c_max`. Each child
  * copies the parent state — the O(m) `CompLB` of Algorithm 1.
  */
final case class BState(arr: Array[Double], aux: Double)

/** Result of extending a parent state by one reference point. `lbO` is the
  * one-side lower bound of the child node; `refCore` is the measure-specific
  * reference-trajectory quantity that `leafTidLB` turns into the two-side
  * bound `LB_t` (Eq. 3 / 8 / 14).
  */
final case class Extended(state: BState, lbO: Double, refCore: Double)

/** Per-measure incremental bound computations for a fixed query (§IV, §VI).
  *
  * Instances are created per (query, grid) pair and used for a whole local
  * search. `monotone` marks measures whose `LB_o` is non-decreasing along
  * trie paths (Lemmas 2–4), which licenses best-first early termination.
  */
sealed trait BoundsOps {
  /** State of the root node (no reference points consumed yet). */
  def rootState: BState
  /** Extend by the child cell `z` — Algorithm 1 / Eq. 9 / Eq. 15. */
  def extend(s: BState, z: Int): Extended
  /** Two-side bound for one trajectory of length `n` in a leaf with the given
    * `D_max` and extension result; by default Eq. 3's, `refCore − D_max`.
    */
  def leafTidLB(refCore: Double, dmax: Double, n: Int): Double =
    math.max(refCore - dmax, 0.0)
  /** Whether lbO grows monotonically down the trie (early-break soundness). */
  def monotone: Boolean = true
  /** Tests trajectory `t` with id `id` against this measure's per-trajectory
    * bounds, cheapest first, each with `best.admits`. Returns `Admitted`, or
    * the bound that cut `t`. None applies by default.
    */
  def cascade(t: Array[Point], id: Long, best: TopK): Int = BoundsOps.Admitted
}

object BoundsOps {
  def forMeasure(measure: Measure, grid: ZGrid, q: Array[Point]): BoundsOps =
    measure match {
      case Hausdorff => new HausdorffOps(q, grid)
      case Frechet   => new FrechetOps(q, grid)
      case DTW       => new DTWOps(q, grid)
      case ERP(g)    => new ERPOps(q, grid, g)
      case LCSS(e)   => new LCSSOps(q, grid, e)
      case EDR(e)    => new EDROps(q, grid, e)
    }

  /** Outcomes of `cascade`. */
  final val Admitted = 0
  final val CutByEndpoint = 1
  final val CutByMbr = 2

  /** max(d(q₁, τ₁), d(q_m, τ_n)): a Fréchet coupling pairs both ends. */
  def endpointLB(q: Array[Point], t: Array[Point]): Double =
    math.max(q(0).dist(t(0)), q(q.length - 1).dist(t(t.length - 1)))

  /** max over i of mindist(q_i, MBR(τ)): Hausdorff and Fréchet match every
    * query point to some point of τ, and none is nearer than τ's MBR.
    */
  def mbrMaxLB(q: Array[Point], t: Array[Point]): Double = {
    val box = MBR(t)
    var lb = 0.0
    var i = 0
    while (i < q.length) { lb = math.max(lb, box.minDist(q(i))); i += 1 }
    lb
  }

  /** Σ over i of mindist(q_i, MBR(τ)), summed in i order: a DTW warping path
    * visits every row in that order, and its first cell in row i costs at
    * least the i-th term here. Rounding is monotone, so the rounded sums
    * keep that order too.
    */
  def mbrSumLB(q: Array[Point], t: Array[Point]): Double = {
    val box = MBR(t)
    var lb = 0.0
    var i = 0
    while (i < q.length) { lb += box.minDist(q(i)); i += 1 }
    lb
  }
}

/** Hausdorff (Alg. 1): state = (r[1..m], c_max). LB_o = max(c_max − √2δ/2, 0)
  * (Eq. 2); refCore = max(max r_i, c_max) = D_H(τ_q, τ*).
  */
final class HausdorffOps(val q: Array[Point], val grid: ZGrid) extends BoundsOps {
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
  override def cascade(t: Array[Point], id: Long, best: TopK): Int =
    if (!best.admits(BoundsOps.mbrMaxLB(q, t), id)) BoundsOps.CutByMbr
    else BoundsOps.Admitted
}

/** Discrete Fréchet (Eq. 7–9): state = DP column f[0..m] with boundary
  * f(0) = −∞ at the root (both-empty corner) and +∞ afterwards. LB_o uses the
  * new column's minimum; refCore = f(m) = D_F(τ_q, τ*).
  */
final class FrechetOps(val q: Array[Point], val grid: ZGrid) extends BoundsOps {
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
  override def cascade(t: Array[Point], id: Long, best: TopK): Int =
    if (!best.admits(BoundsOps.endpointLB(q, t), id)) BoundsOps.CutByEndpoint
    else if (!best.admits(BoundsOps.mbrMaxLB(q, t), id)) BoundsOps.CutByMbr
    else BoundsOps.Admitted
}

/** DTW (Eq. 13–15): DP column over d′(q, cell) (cell-rectangle min distance —
  * no triangle inequality available). LB_o = c_min; LB_t = f(m) directly.
  */
final class DTWOps(val q: Array[Point], val grid: ZGrid) extends BoundsOps {
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
      val d = grid.cellMinDist(q(i - 1), z)
      val reach = math.min(math.min(s.arr(i - 1), f(i - 1)), s.arr(i))
      f(i) = if (reach == Double.MaxValue) Double.MaxValue else d + reach
      if (f(i) < cmin) cmin = f(i)
      i += 1
    }
    Extended(BState(f, 0.0), cmin, f(m))
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double = refCore
  override def cascade(t: Array[Point], id: Long, best: TopK): Int =
    if (!best.admits(BoundsOps.mbrSumLB(q, t), id)) BoundsOps.CutByMbr
    else BoundsOps.Admitted
}

/** ERP with gap point g: DP column of cost under-estimates. Matching a τ
  * point in cell z against q_i is charged d′(q_i, z); deleting q_i costs
  * d(q_i, g); skipping a whole cell column is charged mindist(cell, g) (every
  * trajectory holds ≥ 1 real point in the cell, whose gap cost is at least
  * that). Consecutive-duplicate collapse is covered by the within-column
  * down-step priced min(d(q_i, g), d′(q_i, z)).
  */
final class ERPOps(val q: Array[Point], val grid: ZGrid, g: Point) extends BoundsOps {
  private val m = q.length
  private val gapQ: Array[Double] = q.map(_.dist(g))
  def rootState: BState = {
    val a = new Array[Double](m + 1)
    a(0) = 0.0
    var i = 1
    while (i <= m) { a(i) = a(i - 1) + gapQ(i - 1); i += 1 }
    BState(a, 0.0)
  }
  private def cellGap(z: Int): Double = grid.cellMinDist(g, z)
  def extend(s: BState, z: Int): Extended = {
    val e = new Array[Double](m + 1)
    val cg = cellGap(z)
    e(0) = s.arr(0) + cg
    var cmin = e(0)
    var i = 1
    while (i <= m) {
      val dPrime = grid.cellMinDist(q(i - 1), z)
      val diag = s.arr(i - 1) + dPrime
      val up   = e(i - 1) + math.min(gapQ(i - 1), dPrime)
      val left = s.arr(i) + cg
      e(i) = math.min(diag, math.min(up, left))
      if (e(i) < cmin) cmin = e(i)
      i += 1
    }
    Extended(BState(e, 0.0), cmin, e(m))
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double = refCore
}

/** LCSS distance 1 − LCSS/min(m, n): the column holds an *upper* bound on the
  * match count against any trajectory whose reference prefix is the current
  * path (cell-feasible matches, rows strictly increasing, columns reusable to
  * absorb duplicate-cell collapse). Internal pruning is disabled (lbO = 0,
  * non-monotone); leaves convert the match bound into a distance lower bound
  * per trajectory length.
  */
final class LCSSOps(val q: Array[Point], val grid: ZGrid, eps: Double) extends BoundsOps {
  private val m = q.length
  def rootState: BState = BState(new Array[Double](m + 1), 0.0)
  def extend(s: BState, z: Int): Extended = {
    val l = new Array[Double](m + 1)
    var i = 1
    while (i <= m) {
      val mt = if (grid.cellMinDist(q(i - 1), z) <= eps) 1.0 else 0.0
      l(i) = math.max(s.arr(i), l(i - 1) + mt)
      i += 1
    }
    Extended(BState(l, 0.0), 0.0, l(m))
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double = {
    val denom = math.min(m, n).toDouble
    1.0 - math.min(refCore, denom) / denom
  }
  override def monotone: Boolean = false
}

/** EDR: DP column of edit-cost under-estimates — cell-feasible matches cost
  * 0, otherwise 1; skipping a cell column is free (deleted trajectory points
  * are under-charged at 0). Internal pruning is disabled (the column value is
  * non-increasing in depth); the leaf bound is max(e(m), |m − n|).
  */
final class EDROps(val q: Array[Point], val grid: ZGrid, eps: Double) extends BoundsOps {
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
      val c = if (grid.cellMinDist(q(i - 1), z) <= eps) 0.0 else 1.0
      val diag = s.arr(i - 1) + c
      val down = e(i - 1) + c
      val left = s.arr(i)
      e(i) = math.min(diag, math.min(down, left))
      i += 1
    }
    Extended(BState(e, 0.0), 0.0, e(m))
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double =
    math.max(refCore, math.abs(m - n).toDouble)
  override def monotone: Boolean = false
}
