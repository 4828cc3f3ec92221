package repro.core.search

import repro.core._

/** Incremental lower-bound state attached to a trie search node.
  *
  * `arr` is the measure-specific intermediate column (Hausdorff: the squared
  * row minima `r[1..m]`; Fréchet: the squared DP column; DTW/ERP/LCSS/EDR:
  * the DP column; each DP column has a boundary cell at index 0). `aux`
  * carries Hausdorff's squared running `c_max`.
  */
final case class BState(arr: Array[Double], aux: Double)

/** Result of extending a parent state by one reference point. `lbO` is the
  * one-side lower bound of the child node; `refCore` is the measure-specific
  * reference-trajectory quantity that `leafTidLB` turns into the two-side
  * bound `LB_t` (Eq. 3 / 8 / 14).
  */
final case class Extended(state: BState, lbO: Double, refCore: Double)

/** A column that `BoundsOps.extendInto` writes, with the `aux`, `lbO` and
  * `refCore` of the extension that wrote it: the mutable form of `Extended`
  * that the search extends in place.
  */
class Column(val arr: Array[Double]) {
  var aux: Double = 0.0
  var lbO: Double = 0.0
  var refCore: Double = 0.0
}

/** Per-measure incremental bound computations for a fixed query (§IV, §VI).
  *
  * Instances are created per (query, grid) pair and used for a whole local
  * search. Every measure's `LB_o` is non-decreasing along trie paths
  * (Lemmas 2–4; LCSS and EDR write 0 at every label), which licenses
  * best-first early termination.
  *
  * Each measure has one kernel, `extendInto`, the O(m) `CompLB` of
  * Algorithm 1. It reads the parent column and writes the child's into a
  * given column, which may be the parent's own: every cell is read before it
  * is overwritten, and DP kernels keep the parent's diagonal in a scalar.
  * `extend` runs it into a fresh column and never changes its argument, so
  * siblings can share their parent's state; the search instead overwrites a
  * column that only its own queue entry references (see `LocalSearch`).
  */
sealed trait BoundsOps {
  /** State of the root node (no reference points consumed yet). */
  def rootState: BState
  /** Extends the column `in`, with its `aux`, by the child cell `z` into
    * `out` — Algorithm 1 / Eq. 9 / Eq. 15. `out.arr` may be `in`.
    */
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit
  /** `extendInto` a fresh column; `s` is left unchanged. */
  final def extend(s: BState, z: Int): Extended = {
    val out = new Column(new Array[Double](s.arr.length))
    extendInto(s.arr, s.aux, z, out)
    Extended(BState(out.arr, out.aux), out.lbO, out.refCore)
  }
  /** Two-side bound for one trajectory of length `n` in a leaf with the given
    * `D_max` and extension result; by default Eq. 3's, `refCore − D_max`.
    */
  def leafTidLB(refCore: Double, dmax: Double, n: Int): Double =
    math.max(refCore - dmax, 0.0)
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

/** Hausdorff (Alg. 1): state = (r[1..m], c_max), both squared. LB_o =
  * max(c_max − √2δ/2, 0) (Eq. 2); refCore = max(max r_i, c_max) =
  * D_H(τ_q, τ*). `sqrt` is monotone and correctly rounded, so taking it once
  * per extension gives the same bounds, bit for bit, as taking it per cell.
  */
final class HausdorffOps(val q: Array[Point], val grid: ZGrid) extends BoundsOps {
  private val m = q.length
  private val qx = q.map(_.x)
  private val qy = q.map(_.y)
  def rootState: BState = BState(Array.fill(m)(Double.MaxValue), 0.0)
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit = {
    val px = grid.refX(z)
    val py = grid.refY(z)
    val r = out.arr
    var c = Double.MaxValue
    var rmax = 0.0
    var i = 0
    while (i < m) {
      val dx = qx(i) - px
      val dy = qy(i) - py
      val d = dx * dx + dy * dy
      val ri = if (d < in(i)) d else in(i)
      r(i) = ri
      if (d < c) c = d
      if (ri > rmax) rmax = ri
      i += 1
    }
    val cmax = if (c > aux) c else aux
    out.aux = cmax
    out.lbO = math.max(math.sqrt(cmax) - grid.halfDiag, 0.0)
    out.refCore = math.sqrt(if (rmax > cmax) rmax else cmax)
  }
  override def cascade(t: Array[Point], id: Long, best: TopK): Int =
    if (!best.admits(BoundsOps.mbrMaxLB(q, t), id)) BoundsOps.CutByMbr
    else BoundsOps.Admitted
}

/** Discrete Fréchet (Eq. 7–9): state = DP column f[0..m] of squared
  * distances with boundary f(0) = −∞ at the root (both-empty corner) and +∞
  * afterwards. LB_o uses the new column's minimum; refCore = f(m) =
  * D_F(τ_q, τ*). Like Hausdorff's, the column takes one `sqrt` per bound.
  */
final class FrechetOps(val q: Array[Point], val grid: ZGrid) extends BoundsOps {
  private val m = q.length
  private val qx = q.map(_.x)
  private val qy = q.map(_.y)
  def rootState: BState = {
    val a = Array.fill(m + 1)(Double.MaxValue)
    a(0) = Double.MinValue
    BState(a, 0.0)
  }
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit = {
    val px = grid.refX(z)
    val py = grid.refY(z)
    val f = out.arr
    var diag = in(0) // the parent's cell i − 1, read before f(i − 1) overwrites it
    var prev = Double.MaxValue // f(i − 1)
    f(0) = prev
    var cmin = Double.MaxValue
    var i = 1
    while (i <= m) {
      val dx = qx(i - 1) - px
      val dy = qy(i - 1) - py
      val d = dx * dx + dy * dy
      val row = in(i)
      var reach = if (prev < diag) prev else diag
      if (row < reach) reach = row
      prev = if (d > reach) d else reach
      f(i) = prev
      if (prev < cmin) cmin = prev
      diag = row
      i += 1
    }
    out.aux = 0.0
    out.lbO = math.max(math.sqrt(cmin) - grid.halfDiag, 0.0)
    out.refCore = math.sqrt(prev)
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
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit = {
    val x0 = grid.cornerX(z)
    val y0 = grid.cornerY(z)
    val f = out.arr
    var diag = in(0)
    var prev = Double.MaxValue
    f(0) = prev
    var cmin = Double.MaxValue
    var i = 1
    while (i <= m) {
      val d = grid.cellMinDist(q(i - 1), x0, y0)
      val row = in(i)
      val reach = math.min(math.min(diag, prev), row)
      prev = if (reach == Double.MaxValue) Double.MaxValue else d + reach
      f(i) = prev
      if (prev < cmin) cmin = prev
      diag = row
      i += 1
    }
    out.aux = 0.0
    out.lbO = cmin
    out.refCore = prev
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
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit = {
    val x0 = grid.cornerX(z)
    val y0 = grid.cornerY(z)
    val e = out.arr
    val cg = grid.cellMinDist(g, x0, y0)
    var diagIn = in(0)
    var prev = diagIn + cg
    e(0) = prev
    var cmin = prev
    var i = 1
    while (i <= m) {
      val dPrime = grid.cellMinDist(q(i - 1), x0, y0)
      val row = in(i)
      val diag = diagIn + dPrime
      val up   = prev + math.min(gapQ(i - 1), dPrime)
      val left = row + cg
      prev = math.min(diag, math.min(up, left))
      e(i) = prev
      if (prev < cmin) cmin = prev
      diagIn = row
      i += 1
    }
    out.aux = 0.0
    out.lbO = cmin
    out.refCore = prev
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double = refCore
}

/** LCSS distance 1 − LCSS/min(m, n): the column holds an *upper* bound on the
  * match count against any trajectory whose reference prefix is the current
  * path (cell-feasible matches, rows strictly increasing, columns reusable to
  * absorb duplicate-cell collapse). Internal pruning is disabled (lbO = 0);
  * leaves convert the match bound into a distance lower bound
  * per trajectory length.
  */
final class LCSSOps(val q: Array[Point], val grid: ZGrid, eps: Double) extends BoundsOps {
  private val m = q.length
  def rootState: BState = BState(new Array[Double](m + 1), 0.0)
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit = {
    val x0 = grid.cornerX(z)
    val y0 = grid.cornerY(z)
    val l = out.arr
    var prev = 0.0
    l(0) = prev
    var i = 1
    while (i <= m) {
      val mt = if (grid.cellMinDist(q(i - 1), x0, y0) <= eps) 1.0 else 0.0
      prev = math.max(in(i), prev + mt)
      l(i) = prev
      i += 1
    }
    out.aux = 0.0
    out.lbO = 0.0
    out.refCore = prev
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double = {
    val denom = math.min(m, n).toDouble
    1.0 - math.min(refCore, denom) / denom
  }
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
  def extendInto(in: Array[Double], aux: Double, z: Int, out: Column): Unit = {
    val x0 = grid.cornerX(z)
    val y0 = grid.cornerY(z)
    val e = out.arr
    var diagIn = in(0)
    var prev = diagIn
    e(0) = prev
    var i = 1
    while (i <= m) {
      val c = if (grid.cellMinDist(q(i - 1), x0, y0) <= eps) 0.0 else 1.0
      val left = in(i)
      val diag = diagIn + c
      val down = prev + c
      prev = math.min(diag, math.min(down, left))
      e(i) = prev
      diagIn = left
      i += 1
    }
    out.aux = 0.0
    out.lbO = 0.0
    out.refCore = prev
  }
  override def leafTidLB(refCore: Double, dmax: Double, n: Int): Double =
    math.max(refCore, math.abs(m - n).toDouble)
}
