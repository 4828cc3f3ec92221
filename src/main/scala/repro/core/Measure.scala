package repro.core

/** A similarity measure pluggable into REPOSE and the baselines (§VI).
  *
  * `isMetric` decides whether pivot-based pruning (`LB_p`) applies;
  * `orderIndependent` decides whether the optimized (re-arranged) trie may be
  * used — only Hausdorff qualifies (§III-C).
  */
sealed trait Measure extends Serializable {
  def name: String
  def isMetric: Boolean
  def orderIndependent: Boolean
  /** The exact distance when it is ≤ `bound`; otherwise a lower bound on it
    * that is > `bound` (see `Distances`). It stops early only on a strict
    * `>`, so a distance that ties `bound` is exact.
    */
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double
  /** Exact trajectory distance under this measure: the same kernel at +∞. */
  final def dist(a: Array[Point], b: Array[Point]): Double =
    distWithin(a, b, Double.PositiveInfinity)
  final def dist(a: Trajectory, b: Trajectory): Double = dist(a.points, b.points)
}

case object Hausdorff extends Measure {
  val name = "Hausdorff"; val isMetric = true; val orderIndependent = true
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double =
    Distances.hausdorff(a, b, bound)
}

case object Frechet extends Measure {
  val name = "Frechet"; val isMetric = true; val orderIndependent = false
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double =
    Distances.frechet(a, b, bound)
}

case object DTW extends Measure {
  val name = "DTW"; val isMetric = false; val orderIndependent = false
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double =
    Distances.dtw(a, b, bound)
}

/** ERP with a fixed gap point `g` (a metric for any fixed g). */
final case class ERP(g: Point) extends Measure {
  val name = "ERP"; val isMetric = true; val orderIndependent = false
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double =
    Distances.erp(a, b, g, bound)
}

/** LCSS-derived distance 1 − LCSS/min(m,n) with matching threshold `eps`. */
final case class LCSS(eps: Double) extends Measure {
  val name = "LCSS"; val isMetric = false; val orderIndependent = false
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double =
    Distances.lcssDist(a, b, eps, bound)
}

/** EDR with matching threshold `eps` (not a metric). */
final case class EDR(eps: Double) extends Measure {
  val name = "EDR"; val isMetric = false; val orderIndependent = false
  def distWithin(a: Array[Point], b: Array[Point], bound: Double): Double =
    Distances.edr(a, b, eps, bound)
}
