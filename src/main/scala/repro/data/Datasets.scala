package repro.data

import repro.core.{DTW, Frechet, Hausdorff, Measure}

/** The seven dataset analogs of Table III at ~1/60–1/400 of the paper's
  * cardinality (spatial spans kept identical, so the paper's δ values apply
  * unchanged), plus the paper's per-dataset δ settings (§VII-A).
  */
object Datasets {
  import TrajGen.Spec

  val tdrive: Spec  = Spec("T-drive", 6000, 22, 1.89, 1.17, clusters = 6, seed = 101L)
  val sf: Spec      = Spec("SF", 6000, 27, 0.54, 0.76, clusters = 6, seed = 102L)
  val rome: Spec    = Spec("Rome", 1600, 150, 1.21, 0.86, clusters = 5, seed = 103L)
  val porto: Spec   = Spec("Porto", 10000, 49, 11.7, 14.2, clusters = 8, seed = 104L)
  val xian: Spec    = Spec("Xi'an", 16000, 110, 0.09, 0.08, clusters = 8, seed = 105L)
  val chengdu: Spec = Spec("Chengdu", 24000, 95, 0.09, 0.07, clusters = 8, seed = 106L)
  val osm: Spec     = Spec("OSM", 8000, 130, 360.0, 180.0, clusters = 40, seed = 107L)

  val all: Seq[Spec] = Seq(sf, porto, rome, tdrive, xian, chengdu, osm)

  /** Paper §VII-A parameter settings: δ per dataset and measure. */
  def delta(spec: Spec, measure: Measure): Double = (spec.name, measure) match {
    case ("T-drive", _)            => 0.15
    case ("SF" | "Porto" | "Rome", _) => 0.05
    case ("OSM", _)                => 1.0
    case ("Chengdu", Hausdorff)    => 0.01
    case ("Chengdu", _)            => 0.02
    case ("Xi'an", Hausdorff)      => 0.01
    case ("Xi'an", _)              => 0.03
    case _                         => 0.05
  }

  /** The three distances of the performance overview (Table IV). */
  val tableMeasures: Seq[Measure] = Seq(Hausdorff, Frechet, DTW)
}
