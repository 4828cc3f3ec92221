package repro.baselines.dft

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.baselines.ThresholdSearch
import repro.core.{MBR, Measure, Point, Repose, Trajectory, ZGrid}
import repro.core.search.TopK

/** DFT baseline (Xie, Li, Phillips — PVLDB'17), the DFT-RB+DI variant of
  * §VII-A: trajectories are decomposed into line segments; segments are
  * range-partitioned by centroid z-order (homogeneous grouping); each
  * partition holds an STR R-tree over its segment MBRs; a dual index (tid →
  * full trajectory) supports exact distance evaluation — the source of DFT's
  * ~4× space overhead.
  *
  * Query (top-k): sample C·k trajectories, use the k-th smallest distance as
  * threshold θ; every partition reports the segments within θ of the query
  * point set; a trajectory survives only if ALL its segments survive (every
  * trajectory point must lie within θ of the query set for Hausdorff /
  * Fréchet / DTW once θ ≥ d_k); survivors are evaluated exactly through the
  * dual index; θ doubles and the search retries if fewer than k survive.
  */
object DFT {

  /** Per-partition segment index: packed R-tree over segment MBRs + their tids. */
  final case class SegPart(tree: RTree, tids: Array[Long])

  final class Index(
      val segParts: RDD[SegPart],
      val dual: RDD[Array[Trajectory]],
      val segCounts: Map[Long, Int],
      val samplePool: Array[Trajectory],
      val measure: Measure,
  ) extends Serializable {

    /** Exact top-k, via the dual index, of the trajectories `keep` admits. */
    private def exactTopK(q: Array[Point], k: Int, keep: Long => Boolean) = {
      val measure0 = measure
      Repose.batchTopK(dual, Array(q), k) { (part, q) =>
        val top = new TopK(k)
        part.foreach(t => if (keep(t.id)) top.offer(t.id, measure0.dist(q, t.points)))
        top.result
      }.head
    }

    /** Exact top-k via threshold candidates + dual-index refinement; rejects
      * bad input on the driver like `Repose.Index.query`.
      */
    def query(q: Array[Point], k: Int): Array[(Long, Double)] = {
      Repose.requireQueries(Array(q), k)
      if (k >= segCounts.size) return exactTopK(q, k, _ => true) // evaluate all
      val sc = segParts.sparkContext
      val qB = sc.broadcast(q)
      val countsB = sc.broadcast(segCounts)
      try ThresholdSearch.doubling(ThresholdSearch.initialTheta(samplePool, measure, q, k), k) { th =>
        val candidates = segParts
          .flatMap { part =>
            val hits = scala.collection.mutable.HashMap.empty[Long, Int]
            part.tree.searchWithin(qB.value, th) { e =>
              val t = part.tids(e)
              hits.update(t, hits.getOrElse(t, 0) + 1)
            }
            hits.iterator
          }
          .reduceByKey(_ + _)
          .filter { case (tid, cnt) => cnt == countsB.value(tid) }
          .keys
          .collect()
          .toSet
        // Fewer than k candidates: double θ without an exact step.
        if (candidates.size < k) Array.empty[(Long, Double)]
        else {
          val candB = sc.broadcast(candidates)
          try exactTopK(q, k, tid => candB.value.contains(tid)) finally candB.destroy()
        }
      } finally { qB.destroy(); countsB.destroy() }
    }

    /** IS metric: segment R-trees and tids + the dual-index copy. */
    def indexBytes: Long = {
      val segBytes = segParts
        .map(p => org.apache.spark.util.SizeEstimator.estimate(p))
        .fold(0L)(_ + _)
      val dualBytes = dual
        .map(_.map(org.apache.spark.util.SizeEstimator.estimate(_)).sum)
        .fold(0L)(_ + _)
      segBytes + dualBytes
    }

    def unpersist(): Unit = {
      segParts.unpersist(blocking = true)
      dual.unpersist(blocking = true)
    }
  }

  /** Build the DFT index. `heterogeneous = true` yields Heter-DFT
    * (Table IX): whole trajectories are dealt across partitions with
    * REPOSE's heterogeneous strategy (their segments follow them), instead
    * of DFT's homogeneous centroid-z-order range partitioning of segments.
    * Throws `IllegalArgumentException` on the driver, naming the smallest
    * repeated id, before any index is built.
    */
  def build(
      trajs: RDD[Trajectory],
      measure: Measure,
      numPartitions: Int,
      heterogeneous: Boolean = false,
  ): Index = {
    val mbr = Repose.datasetMbr(trajs)
    val u = math.max(math.max(mbr.width, mbr.height), 1e-9)
    val segCountRows = trajs.map(t => (t.id, math.max(1, t.length - 1))).collect()
    repro.core.partition.GlobalPartitioning.distinctSorted(segCountRows.map(_._1))
    val segCounts = segCountRows.toMap

    // Segment rows keyed by centroid z-order (1024×1024 Morton grid).
    def zCentroid(a: Point, b: Point): Int = {
      val cx = math.min(1023, math.max(0, ((a.x + b.x) / 2 - mbr.minX) / u * 1024).toInt)
      val cy = math.min(1023, math.max(0, ((a.y + b.y) / 2 - mbr.minY) / u * 1024).toInt)
      ZGrid.interleave(cx, cy, 10)
    }

    def segments(t: Trajectory): Iterator[(Point, Point, Long)] =
      if (t.length == 1) Iterator.single((t.points(0), t.points(0), t.id))
      else (0 until t.length - 1).iterator.map(i => (t.points(i), t.points(i + 1), t.id))

    def segMbr(a: Point, b: Point): MBR =
      MBR(math.min(a.x, b.x), math.min(a.y, b.y), math.max(a.x, b.x), math.max(a.y, b.y))

    val assigned: RDD[(Int, (Long, MBR))] =
      if (heterogeneous) {
        // Heter-DFT: trajectories dealt by REPOSE's strategy; segments follow.
        repro.core.partition.GlobalPartitioning
          .assign(trajs, repro.core.partition.Heterogeneous, numPartitions, mbr)
          .flatMap { case (pid, t) =>
            segments(t).map { case (a, b, tid) => (pid, (tid, segMbr(a, b))) }
          }
      } else {
        val segs = trajs.flatMap { t =>
          segments(t).map { case (a, b, tid) => (zCentroid(a, b), (tid, segMbr(a, b))) }
        }
        val total = segs.count()
        segs.sortByKey().values.zipWithIndex().map { case (row, idx) =>
          (math.min(numPartitions - 1, (idx * numPartitions / math.max(total, 1L)).toInt), row)
        }
      }
    val segParts = assigned
      .partitionBy(new repro.core.partition.IdPartitioner(numPartitions))
      .values
      .mapPartitions { it =>
        val rows = it.toArray
        if (rows.isEmpty) Iterator.empty
        else {
          Iterator.single(SegPart(RTree.pack(rows.map(_._2)), rows.map(_._1)))
        }
      }
      .persist(StorageLevel.MEMORY_ONLY)
    segParts.count()

    val dual = trajs
      .map(t => (t.id, t))
      .partitionBy(new org.apache.spark.HashPartitioner(numPartitions))
      .mapPartitions(it => Iterator.single(it.map(_._2).toArray))
      .persist(StorageLevel.MEMORY_ONLY)
    dual.count()

    new Index(segParts, dual, segCounts, ThresholdSearch.samplePool(trajs, segCounts.size), measure)
  }
}
