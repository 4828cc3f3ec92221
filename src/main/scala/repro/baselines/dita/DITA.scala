package repro.baselines.dita

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.baselines.ThresholdSearch
import repro.core.{MBR, Measure, Point, Repose, Trajectory, Frechet, DTW}
import repro.core.partition.GlobalPartitioning
import repro.core.search.TopK

/** DITA baseline (Shang, Li, Bao — SIGMOD'18), simplified per §VII-A / §VIII:
  * each trajectory is represented by its first point, last point, and up to
  * N_L = 32 high-neighbor-distance pivot points; the local index is a two-level
  * trie (first-point cell → last-point cell) whose leaves hold per-trajectory
  * entries with the pivot MBR. Global partitioning ranks trajectories by
  * (first-point cell, last-point cell, id) with REPOSE's
  * `GlobalPartitioning.byRank` and cuts the ranks into blocks (homogeneous);
  * Heter-DITA (Table VIII) deals them round-robin instead.
  *
  * Top-k follows the paper's description: estimate a threshold from a C·k
  * sample, repeatedly halve it while the index counts more than C·k
  * candidates, then run a range query and refine; the threshold doubles until
  * the k-th exact distance falls inside it (exactness guarantee).
  *
  * Supports Fréchet and DTW — the first/last-point bounds require
  * order-sensitive measures, so Hausdorff is unsupported ("/" in Table IV),
  * as in the paper.
  */
object DITA {

  // Constant `final val`s are inlined, so the build closures that read them
  // do not capture this (unserializable) object.

  /** N_L, the pivot points per trajectory (§VII-A). */
  private final val NL = 32
  /** Grid cells per side of the first/last-point trie levels. */
  private final val CellsPerSide = 32

  final case class Entry(tid: Int, first: Point, last: Point, pmbr: MBR)
  final case class Node2(lastMbr: MBR, entries: Array[Entry])
  final case class Node1(firstMbr: MBR, children: Array[Node2])
  final case class Part(trajs: Array[Trajectory], roots: Array[Node1])

  /** Lower bound of the distance from q to the trajectory behind `e`: exact
    * first/last point terms plus the pivot-MBR to query-MBR term — valid for
    * Fréchet (corner alignments) and DTW (pair (1,1)/(m,n) always aligned;
    * every pivot matched to some query point).
    */
  private def entryLB(q: Array[Point], qMbr: MBR, e: Entry): Double = {
    var lb = math.max(q.head.dist(e.first), q.last.dist(e.last))
    val pm = qMbr.minDist(e.pmbr)
    if (pm > lb) lb = pm
    lb
  }

  private def visitCandidates(
      part: Part, q: Array[Point], qMbr: MBR, theta: Double,
  )(f: Entry => Unit): Unit = {
    part.roots.foreach { n1 =>
      if (n1.firstMbr.minDist(q.head) <= theta) {
        n1.children.foreach { n2 =>
          if (n2.lastMbr.minDist(q.last) <= theta) {
            n2.entries.foreach { e =>
              if (entryLB(q, qMbr, e) <= theta) f(e)
            }
          }
        }
      }
    }
  }

  final class Index(
      val parts: RDD[Part],
      val measure: Measure,
      val samplePool: Array[Trajectory],
      val total: Long,
  ) extends Serializable {

    private def count(q: Array[Point], theta: Double): Long =
      Repose.batchJob(parts, Array(q)) { (p, q) =>
        var c = 0L
        visitCandidates(p, q, MBR(q), theta)(_ => c += 1)
        c
      }.map(_.head).sum

    private def refine(q: Array[Point], theta: Double, k: Int): Array[(Long, Double)] = {
      val measure0 = measure
      Repose.batchTopK(parts, Array(q), k) { (p, q) =>
        val top = new TopK(k)
        visitCandidates(p, q, MBR(q), theta) { e =>
          val t = p.trajs(e.tid)
          top.offer(t.id, measure0.dist(q, t.points))
        }
        top.result
      }.head
    }

    /** Exact top-k; rejects bad input on the driver like `Repose.Index.query`. */
    def query(q: Array[Point], k: Int): Array[(Long, Double)] = {
      Repose.requireQueries(Array(q), k)
      if (k >= total) return refine(q, Double.MaxValue, k)
      // Halve while the index still reports more than C·k candidates and the
      // halved threshold keeps at least k; each step runs one count.
      @annotation.tailrec
      def halve(theta: Double, cnt: Long): Double =
        if (cnt <= ThresholdSearch.C.toLong * k) theta
        else {
          val half = count(q, theta / 2)
          if (half >= k) halve(theta / 2, half) else theta
        }
      val theta0 = ThresholdSearch.initialTheta(samplePool, measure, q, k)
      ThresholdSearch.doubling(halve(theta0, count(q, theta0)), k)(refine(q, _, k))
    }

    /** IS metric: the per-partition tries (entries, MBRs) — trajectories are
      * data, not index, for every algorithm's IS.
      */
    def indexBytes: Long = parts
      .map(p => org.apache.spark.util.SizeEstimator.estimate(p.roots))
      .fold(0L)(_ + _)

    def unpersist(): Unit = parts.unpersist(blocking = true)
  }

  /** Neighbor-distance pivot selection. */
  private def pivotMbr(t: Trajectory): MBR = {
    val pts = t.points
    if (pts.length <= NL) MBR(pts)
    else {
      val scored = (1 until pts.length - 1).map { i =>
        (pts(i - 1).dist(pts(i)) + pts(i).dist(pts(i + 1)), i)
      }.sorted.reverse.take(NL - 2).map(s => pts(s._2))
      MBR((scored :+ pts.head :+ pts.last).toArray)
    }
  }

  /** Build the DITA index. Throws `IllegalArgumentException` on the driver,
    * naming the smallest repeated id, before any index is built.
    */
  def build(
      trajs: RDD[Trajectory],
      measure: Measure,
      numPartitions: Int,
      roundRobin: Boolean = false,
  ): Index = {
    require(measure == Frechet || measure == DTW,
      s"DITA does not support ${measure.name} (first/last-point bounds need order sensitivity)")
    val mbr = Repose.datasetMbr(trajs)
    val u = math.max(math.max(mbr.width, mbr.height), 1e-9)
    def cell(p: Point): Int = {
      val cx = math.min(CellsPerSide - 1, math.max(0, ((p.x - mbr.minX) / u * CellsPerSide).toInt))
      val cy = math.min(CellsPerSide - 1, math.max(0, ((p.y - mbr.minY) / u * CellsPerSide).toInt))
      cx * CellsPerSide + cy
    }

    // One collect of each id with its (first cell, last cell) key; REPOSE's
    // rank placement orders by (key, id) and rejects a repeated id.
    val (ids, keys) = trajs
      .map(t => (t.id, Array(cell(t.points.head), cell(t.points.last))))
      .collect().unzip
    val assigned = GlobalPartitioning.byRank(trajs, ids, keys, roundRobin, numPartitions)
    val parts = GlobalPartitioning
      .partitioned(assigned, numPartitions)
      .map { arr =>
        val entries = arr.zipWithIndex.map { case (t, i) =>
          (cell(t.points.head), cell(t.points.last),
           Entry(i, t.points.head, t.points.last, pivotMbr(t)))
        }
        val roots = entries
          .groupBy(_._1)
          .map { case (_, g1) =>
            val children = g1
              .groupBy(_._2)
              .map { case (_, g2) =>
                val es = g2.map(_._3)
                Node2(MBR(es.map(_.last)), es)
              }
              .toArray
            Node1(MBR(g1.map(_._3.first)), children)
          }
          .toArray
        Part(arr, roots)
      }
      .persist(StorageLevel.MEMORY_ONLY)
    parts.count()
    new Index(parts, measure, ThresholdSearch.samplePool(trajs, ids.length), ids.length)
  }
}
