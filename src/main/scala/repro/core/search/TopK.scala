package repro.core.search

import scala.collection.mutable

/** The k smallest results seen so far in the one total order every search
  * uses, (distance, id). Answers are therefore the brute-force top-k element
  * for element, whatever the visit order, partitioning or partition count.
  */
final class TopK(k: Int) {
  require(k >= 1, s"k must be at least 1, got $k")
  // A max-heap: once k results are held, its head is the k-th.
  private val heap = mutable.PriorityQueue.empty[(Double, Long)](TopK.order)

  /** Whether k results are held, so that `dk` is the k-th distance. */
  def full: Boolean = heap.size == k

  /** d_k: the k-th distance, or +∞ while fewer than k results are held. */
  def dk: Double = if (heap.size < k) Double.PositiveInfinity else heap.head._1

  /** Whether (d, id) would enter now; for a lower bound d, whether the exact distance can. */
  def admits(d: Double, id: Long): Boolean =
    heap.size < k || { val h = heap.head; TopK.compare(d, id, h._1, h._2) < 0 }

  def offer(id: Long, d: Double): Unit =
    if (admits(d, id)) { if (heap.size == k) heap.dequeue(); heap.enqueue((d, id)) }

  /** The held (id, distance) pairs sorted by (distance, id). */
  def result: Array[(Long, Double)] =
    heap.toArray.sorted(TopK.order).map { case (d, id) => (id, d) }
}

object TopK {
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
}
