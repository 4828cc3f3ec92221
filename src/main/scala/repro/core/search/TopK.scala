package repro.core.search

import scala.collection.mutable

/** The k smallest results seen so far in the one total order every search
  * uses, (distance, id). Answers are therefore the brute-force top-k element
  * for element, whatever the visit order, partitioning or partition count.
  *
  * `bound` = (θ, id_θ) is an admission bound known before the search: a pair
  * is admitted only if it is ≤ (θ, id_θ), and `dk` is θ until k results are
  * held. Started at a pair ≥ the k-th smallest of all pairs, the heap ends
  * with the same k results as an unbounded one; started below it, with every
  * pair ≤ (θ, id_θ). The default, `TopK.Unbounded`, bounds nothing.
  */
final class TopK(k: Int, bound: (Double, Long) = TopK.Unbounded) {
  require(k >= 1, s"k must be at least 1, got $k")
  // A max-heap: once k results are held, its head is the k-th.
  private val heap = mutable.PriorityQueue.empty[(Double, Long)](TopK.order)
  private val theta = bound._1
  private val thetaId = bound._2
  // Unbounded, every pair enters until k are held, NaN distances included.
  private val bounded = bound != TopK.Unbounded

  /** d_k: the k-th distance, or θ while fewer than k results are held. */
  def dk: Double = if (heap.size < k) theta else heap.head._1

  /** Whether (d, id) would enter now; for a lower bound d, whether the exact distance can. */
  def admits(d: Double, id: Long): Boolean =
    if (heap.size < k) !bounded || TopK.compare(d, id, theta, thetaId) <= 0
    else { val h = heap.head; TopK.compare(d, id, h._1, h._2) < 0 }

  def offer(id: Long, d: Double): Unit =
    if (admits(d, id)) { if (heap.size == k) heap.dequeue(); heap.enqueue((d, id)) }

  /** The held (id, distance) pairs sorted by (distance, id). */
  def result: Array[(Long, Double)] =
    heap.toArray.sorted(TopK.order).map { case (d, id) => (id, d) }
}

object TopK {
  /** The admission bound that bounds nothing: (+∞, `Long.MaxValue`). */
  val Unbounded: (Double, Long) = (Double.PositiveInfinity, Long.MaxValue)

  /** (distance, id) order: `java.lang.Double.compare` (−0.0 < 0.0, NaN
    * last), then id. Compares primitives, without boxing.
    */
  private def compare(d1: Double, id1: Long, d2: Double, id2: Long): Int = {
    val c = java.lang.Double.compare(d1, d2)
    if (c != 0) c else java.lang.Long.compare(id1, id2)
  }

  val order: Ordering[(Double, Long)] = new Ordering[(Double, Long)] {
    def compare(x: (Double, Long), y: (Double, Long)): Int = TopK.compare(x._1, x._2, y._1, y._2)
  }

  /** Global top-k of local top-k lists over disjoint sets of ids. */
  def merge(k: Int, lists: IterableOnce[Array[(Long, Double)]]): Array[(Long, Double)] = {
    val top = new TopK(k)
    lists.iterator.foreach(_.foreach { case (id, d) => top.offer(id, d) })
    top.result
  }

  /** The admission bound a merged top-k gives: its last pair as (θ, id_θ)
    * when it holds k results, else `Unbounded`.
    */
  def boundOf(k: Int, top: Array[(Long, Double)]): (Double, Long) =
    if (top.length < k) Unbounded else (top(k - 1)._2, top(k - 1)._1)
}
