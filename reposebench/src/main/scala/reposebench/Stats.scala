package reposebench

/** Order statistics for every timing the benchmark reports. */
object Stats {

  /** Percentiles considered for a tail figure, highest first. */
  private val Candidates = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** Samples strictly beyond the nearest-rank `p`-th percentile of `n`. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** The highest candidate percentile that leaves at least `minBeyond`
    * samples beyond it, so that a tail figure rests on more than a handful of
    * samples. None when even the median does not qualify.
    */
  def highestPercentile(n: Int, minBeyond: Int = 10): Option[Double] =
    Candidates.find(p => beyond(n, p) >= minBeyond)

  /** 1-based nearest rank of the `p`-th percentile among `n` samples. */
  private def rank(n: Int, p: Double): Int =
    math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** Nearest-rank percentile: a value that was actually measured. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    xs.sorted.apply(rank(xs.length, p) - 1)
  }

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }
}
