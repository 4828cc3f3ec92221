package reposebench

import repro.core.{DTW, Frechet, Hausdorff, MBR, Measure, Point, Trajectory}

/** The answer check: an independent exact top-k and a tie-robust comparison.
  *
  * The reference scan evaluates `Measure.dist` in ascending order of a cheap
  * lower bound and stops once the bound exceeds the current k-th distance, so
  * it returns exactly what an exhaustive scan returns (ties broken by id) at a
  * fraction of the cost. It shares no code with REPOSE's own bounds.
  */
object Answers {

  type TopK = Array[(Long, Double)]

  /** A lower bound on `measure.dist(q, t)` from t's bounding rectangle.
    *
    * Every point of `q` is matched to some point of `t` under Hausdorff,
    * Fréchet and DTW, and no point of `t` is closer to `q(i)` than t's MBR.
    * DTW sums the matched distances, the other two take their maximum. Other
    * measures get the trivial bound 0, which keeps the scan exhaustive.
    */
  def mbrLowerBound(measure: Measure, q: Array[Point], mbr: MBR): Double = measure match {
    case DTW                => q.foldLeft(0.0)((s, p) => s + mbr.minDist(p))
    case Hausdorff | Frechet => q.foldLeft(0.0)((s, p) => math.max(s, mbr.minDist(p)))
    case _                  => 0.0
  }

  /** Exact top-k of `q` among `trajs`, sorted by (distance, id). */
  def referenceTopK(
      trajs: Array[Trajectory],
      mbrs: Array[MBR],
      q: Array[Point],
      k: Int,
      measure: Measure,
  ): TopK = {
    val lbs = Array.tabulate(trajs.length)(i => mbrLowerBound(measure, q, mbrs(i)))
    val order = lbs.indices.sortBy(lbs(_))
    val best = scala.collection.mutable.PriorityQueue.empty[(Double, Long)] // max-heap on (d, id)
    // Slack keeps a bound that differs from the exact DP only by rounding
    // from cutting a candidate that ties the k-th distance.
    def cut(lb: Double): Boolean =
      best.size == k && lb > best.head._1 + 1e-9 * math.max(1.0, best.head._1)
    var i = 0
    while (i < order.length && !cut(lbs(order(i)))) {
      val t = trajs(order(i))
      val cand = (measure.dist(q, t.points), t.id)
      if (best.size < k) best.enqueue(cand)
      else if (Ordering[(Double, Long)].lt(cand, best.head)) { best.dequeue(); best.enqueue(cand) }
      i += 1
    }
    best.toArray.sorted.map { case (d, id) => (id, d) }
  }

  /** Merges per-partition exact top-k lists into the global one. */
  def merge(parts: Seq[TopK], k: Int): TopK =
    parts.flatten.sortBy { case (id, d) => (d, id) }.take(k).toArray

  /** Why `got` is not a correct top-k, or None when it is.
    *
    * Robust to distance ties, as the engine's own tests are: the distance
    * sequences must agree within `tol`, ids must be distinct, and every
    * reported (id, distance) must be genuine, which `distOf` recomputes.
    */
  def mismatch(
      got: TopK,
      expected: TopK,
      distOf: Long => Option[Double],
      tol: Double = 1e-9,
  ): Option[String] = {
    lazy val fake = got.iterator.collectFirst {
      case (id, d) if !distOf(id).exists(a => math.abs(a - d) <= tol) =>
        s"id $id reported at $d, actual ${distOf(id).getOrElse("absent")}"
    }
    lazy val rank = got.map(_._2).zip(expected.map(_._2)).zipWithIndex.collectFirst {
      case ((g, e), r) if math.abs(g - e) > tol => s"rank $r distance $g, expected $e"
    }
    if (got.length != expected.length) Some(s"${got.length} results, expected ${expected.length}")
    else if (got.map(_._1).distinct.length != got.length) Some("duplicate ids")
    else fake.orElse(rank)
  }
}
