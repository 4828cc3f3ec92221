package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.core.{Measure, Point, Repose, Trajectory}
import repro.core.partition.{GlobalPartitioning, RandomPartitioning}
import repro.core.search.TopK

/** Baseline LS (§VII-A): brute-force distributed linear search — each
  * partition computes the distance from the query to every trajectory it
  * holds, keeps a local top-k, and the driver merges.
  */
object LinearSearch {

  final class Index(
      val rdd: RDD[Array[Trajectory]],
      val measure: Measure,
  ) extends Serializable {

    def query(q: Array[Point], k: Int): Array[(Long, Double)] =
      queryBatch(Array(q), k).head

    /** Batch counterpart of `query`: the same validated single job and
      * merge as `Repose.Index.queryBatch`, so timing comparisons are fair.
      */
    def queryBatch(qs: Array[Array[Point]], k: Int): Array[Array[(Long, Double)]] = {
      val measure0 = measure
      Repose.batchTopK(rdd, qs, k) { (part, q) =>
        val top = new TopK(k)
        part.foreach(t => top.offer(t.id, measure0.dist(q, t.points)))
        top.result
      }
    }

    def unpersist(): Unit = rdd.unpersist(blocking = true)
  }

  /** Materialize the trajectory arrays, placed by random partitioning (no
    * index — the paper reports "/" for LS index size and construction time).
    */
  def build(
      trajs: RDD[Trajectory],
      measure: Measure,
      numPartitions: Int,
  ): Index = {
    val mbr = Repose.datasetMbr(trajs)
    val assigned = GlobalPartitioning.assign(trajs, RandomPartitioning, numPartitions, mbr)
    val rdd = GlobalPartitioning
      .partitioned(assigned, numPartitions)
      .mapPartitions(it => Iterator.single(it.toArray))
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count()
    new Index(rdd, measure)
  }
}
