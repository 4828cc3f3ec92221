package repro.baselines

import org.apache.spark.rdd.RDD
import scala.util.Random

import repro.core.{Measure, Point, Trajectory}

/** The threshold search of DFT and DITA: θ₀ from a C·k sample of a
  * build-time pool, doubled until a search within θ finds its k-th within θ.
  */
private[baselines] object ThresholdSearch {

  /** C of the C·k sample and its seed; size and seed of the pool it is from. */
  final val C = 5
  private final val QuerySeed = 7L
  private final val SamplePoolSize = 2000
  private final val SampleSeed = 11L

  /** The pool, drawn from `n` trajectories. */
  def samplePool(trajs: RDD[Trajectory], n: Long): Array[Trajectory] =
    trajs.takeSample(withReplacement = false, math.min(SamplePoolSize, n).toInt, SampleSeed)

  /** θ₀: the k-th distance from q in a C·k sample of `pool`, at least 1e-12. */
  def initialTheta(pool: Array[Trajectory], measure: Measure, q: Array[Point], k: Int): Double = {
    val sample = new Random(QuerySeed).shuffle(pool.toVector).take(C * k)
    val dists = sample.map(t => measure.dist(q, t.points)).sorted
    math.max(dists(math.min(k - 1, dists.length - 1)), 1e-12)
  }

  /** `search(θ)` for θ = θ₀, 2θ₀, …, until its k-th result is ≤ θ. Given
    * the exact top-k of a superset of the trajectories within θ, that
    * answer is the global top-k.
    */
  @annotation.tailrec
  def doubling(theta: Double, k: Int)(search: Double => Array[(Long, Double)]): Array[(Long, Double)] = {
    val topk = search(theta)
    if (topk.length >= k && topk(k - 1)._2 <= theta) topk else doubling(theta * 2, k)(search)
  }
}
