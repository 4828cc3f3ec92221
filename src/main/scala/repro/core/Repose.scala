package repro.core

import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.partition._
import repro.core.rptrie.RPTrie
import repro.core.search.{LocalSearch, TopK}

/** A partition's packaged data + local index — the paper's
  * `case class RpTraj(trajectory: Array, Index: RP-Trie)` (§V-C).
  */
final case class RpTraj(trajs: Array[Trajectory], index: RPTrie)

/** Configuration of the REPOSE framework (§VII defaults: N_p = 5, optimized
  * trie on, 64 partitions on the 16×4-core cluster — here sized for local[*]).
  */
final case class ReposeConfig(
    delta: Double,
    np: Int = 5,
    numPartitions: Int = 16,
    strategy: PartitionStrategy = Heterogeneous,
    optimizedTrie: Boolean = true,
    seed: Long = 42L,
)

/** The REPOSE distributed in-memory framework (§V).
  *
  * `build` computes the global grid, selects global pivots on the driver,
  * assigns partitions with the configured strategy through a custom
  * `Partitioner`, and constructs one RP-Trie per partition inside
  * `mapPartitions` — the `RpTrieRDD = RDD[RpTraj]` of §V-C. `query` runs the
  * best-first local search in every partition and merges the per-partition
  * top-k on the driver with `collect`; `queryBatch` does so twice, the
  * second round bounded by the first (see DESIGN.md, *Two-round batches*).
  */
object Repose {

  type RpTrieRDD = RDD[RpTraj]

  /** Random candidate groups `selectPivots` scores by pairwise distance sum
    * when it picks the global pivots (§III-B).
    */
  private val PivotGroups = 10

  final class Index(
      val rdd: RpTrieRDD,
      val measure: Measure,
      val grid: ZGrid,
      val cfg: ReposeConfig,
  ) extends Serializable {

    /** Exact global top-k for one query trajectory, in one Spark job: the
      * one-round search, since a second round's job costs more than a lone
      * query's search saves.
      */
    def query(q: Array[Point], k: Int): Array[(Long, Double)] =
      batchTopK(rdd, Array(q), k)((rp, q) => LocalSearch.topK(rp.index, rp.trajs, q, k)).head

    /** Exact top-k for a batch of queries in two Spark jobs. Every partition
      * answers every query locally and the driver merges per query, twice:
      *  - round 1 asks each partition for its top-⌈k/P⌉, P =
      *    `cfg.numPartitions`, and merges them into the union's top-k;
      *  - when that union holds k results, its last pair (θ, id_θ) is at or
      *    above the global k-th pair, so round 2's top-k search starts with
      *    it as its admission bound (`LocalSearch.topK`'s `bound`); with
      *    fewer, round 2 runs unbounded.
      * Round 2's merge is the answer. Batching amortizes both jobs' launch
      * overhead across the workload, which is how a 100-query evaluation
      * set is processed.
      *
      * Throws `IllegalArgumentException` on the driver, before any job runs,
      * when k < 1 or a query is empty or has a non-finite coordinate.
      */
    def queryBatch(qs: Array[Array[Point]], k: Int): Array[Array[(Long, Double)]] = {
      val k1 = ((k.toLong + cfg.numPartitions - 1) / cfg.numPartitions).toInt
      val first = batchTopK(rdd, qs, k)((rp, q) => LocalSearch.topK(rp.index, rp.trajs, q, k1))
      val rows = batchJob(rdd, qs.zip(first.map(TopK.boundOf(k, _)))) { case (rp, (q, bound)) =>
        LocalSearch.topK(rp.index, rp.trajs, q, k, new LocalSearch.Stats, bound)
      }
      mergeRows(rows, qs.length, k)
    }

    /** Per-partition workload skew for a query batch: (max / mean) of the
      * exact-distance computations each partition performs in the one-round
      * search that `query` runs, the quantity of the paper's Table VII. 1.0
      * is perfect balance, which the heterogeneous strategy optimizes
      * (§V-B); per-query wall-clock equals the slowest partition's share.
      */
    def workImbalance(qs: Array[Array[Point]], k: Int): Double = {
      val perPart = batchJob(rdd, qs) { (rp, q) =>
        val stats = new LocalSearch.Stats
        LocalSearch.topK(rp.index, rp.trajs, q, k, stats)
        stats.exactDistances
      }.map(_.sum)
      if (perPart.isEmpty || perPart.sum == 0) 1.0
      else perPart.max.toDouble / (perPart.sum.toDouble / perPart.length)
    }

    /** Index-size metric IS: summed estimated footprint of the local tries. */
    def indexBytes: Long =
      rdd.map(rp => rp.index.estimatedSizeBytes).fold(0L)(_ + _)

    /** Total path-compressed trie nodes across partitions. Fig. 7 counts
      * per-label nodes: `numLabels + 1` per trie.
      */
    def totalNodes: Long = rdd.map(rp => rp.index.numNodes.toLong).fold(0L)(_ + _)

    def unpersist(): Unit = rdd.unpersist(blocking = true)
  }

  private def isValid(pts: Array[Point]): Boolean =
    pts.nonEmpty && pts.forall(p => p.x.isFinite && p.y.isFinite)

  /** The query contract of every index: throws `IllegalArgumentException`
    * unless k ≥ 1 and every query is non-empty with finite coordinates.
    */
  private[repro] def requireQueries(qs: Array[Array[Point]], k: Int): Unit = {
    require(k >= 1, s"k must be at least 1, got $k")
    qs.indices.foreach(qi =>
      require(isValid(qs(qi)), s"query $qi is empty or has a non-finite coordinate"))
  }

  /** The one batched-query job: broadcasts the batch, and row e of the
    * result holds `search`'s answers to every query in element e. The
    * broadcast is destroyed whether or not the job succeeds.
    */
  private[repro] def batchJob[P, Q: ClassTag, R: ClassTag](rdd: RDD[P], qs: Array[Q])(
      search: (P, Q) => R,
  ): Array[Array[R]] = {
    val qB = rdd.sparkContext.broadcast(qs)
    try rdd.map(p => qB.value.map(search(p, _))).collect()
    finally qB.destroy()
  }

  /** Exact top-k per query: validates the batch on the driver, runs
    * `batchJob`, and merges the elements' lists per query.
    */
  private[repro] def batchTopK[P](rdd: RDD[P], qs: Array[Array[Point]], k: Int)(
      search: (P, Array[Point]) => Array[(Long, Double)],
  ): Array[Array[(Long, Double)]] = {
    requireQueries(qs, k)
    mergeRows(batchJob(rdd, qs)(search), qs.length, k)
  }

  /** Top-k of each of `n` queries over `batchJob`'s rows. */
  private def mergeRows(rows: Array[Array[Array[(Long, Double)]]], n: Int, k: Int) =
    Array.tabulate(n)(qi => TopK.merge(k, rows.iterator.map(_(qi))))

  /** MBR of the dataset, in one pass that also throws `IllegalArgumentException`
    * on the driver if a trajectory is empty or has a non-finite coordinate.
    */
  private[repro] def datasetMbr(trajs: RDD[Trajectory]): MBR = {
    val r = trajs.map(t => if (isValid(t.points)) Right(t.mbr) else Left(t.id)).reduce {
      case (Right(a), Right(b)) => Right(a union b)
      case (Left(a), Left(b))   => Left(math.min(a, b))
      case (a, b)               => if (a.isLeft) a else b
    }
    r.fold(id => throw new IllegalArgumentException(
      s"trajectory $id is empty or has a non-finite coordinate"), identity)
  }

  /** Build the distributed index. Forces materialization so timing callers
    * measure the full construction (discretization + clustering + tries).
    * Rejects an empty or non-finite trajectory (see `datasetMbr`) and a
    * repeated id (see `GlobalPartitioning.assign`).
    */
  def build(
      spark: SparkSession,
      trajs: RDD[Trajectory],
      measure: Measure,
      cfg: ReposeConfig,
  ): Index = {
    val mbr = datasetMbr(trajs)
    val grid = ZGrid.fit(mbr, cfg.delta)

    // Global pivots: selected once on the driver from a sample. They and the
    // grid are small, so the closure that builds the tries carries them. A
    // build that keeps no pivot (non-metric measure, or np ≤ 0) draws no
    // sample.
    val pivots =
      if (!measure.isMetric || cfg.np <= 0) Array.empty[Array[Point]]
      else {
        val sampleSize = math.max(cfg.np * 20, 100)
        val sample = trajs.takeSample(withReplacement = false, sampleSize, cfg.seed)
        RPTrie.selectPivots(sample, measure, cfg.np, PivotGroups, cfg.seed)
      }

    val assigned = GlobalPartitioning.assign(trajs, cfg.strategy, cfg.numPartitions, mbr)
    val part = GlobalPartitioning.partitioned(assigned, cfg.numPartitions)
    val optimized = cfg.optimizedTrie
    val rdd: RpTrieRDD = part
      .mapPartitions { it =>
        val arr = it.toArray
        if (arr.isEmpty) Iterator.empty
        else {
          // Partition-local ids are array indices; global ids live in Trajectory.id.
          val trie = RPTrie.build(arr, grid, measure, pivots, optimized)
          Iterator.single(RpTraj(arr, trie))
        }
      }
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count() // materialize
    new Index(rdd, measure, grid, cfg)
  }
}
