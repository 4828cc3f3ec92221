package repro.core

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.partition._
import repro.core.rptrie.RPTrie
import repro.core.search.LocalSearch

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
    pivotGroups: Int = 10,
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
  * top-k on the driver with `collect`.
  */
object Repose {

  type RpTrieRDD = RDD[RpTraj]

  final class Index(
      val rdd: RpTrieRDD,
      val measure: Measure,
      val grid: ZGrid,
      val cfg: ReposeConfig,
  ) extends Serializable {

    /** Exact global top-k for one query trajectory. */
    def query(q: Array[Point], k: Int): Array[(Long, Double)] =
      queryBatch(Array(q), k).head

    /** Exact top-k for a batch of queries in a single Spark job — every
      * partition answers every query locally, the driver merges per query.
      * Batching amortizes job-launch overhead across the workload, which is
      * how a 100-query evaluation set is processed.
      *
      * Throws `IllegalArgumentException` on the driver, before any job runs,
      * when k < 1 or a query is empty or has a non-finite coordinate.
      */
    def queryBatch(qs: Array[Array[Point]], k: Int): Array[Array[(Long, Double)]] = {
      require(k >= 1, s"k must be at least 1, got $k")
      qs.indices.foreach { qi =>
        require(qs(qi).nonEmpty, s"query $qi is empty")
        require(qs(qi).forall(p => p.x.isFinite && p.y.isFinite),
          s"query $qi has a non-finite coordinate")
      }
      val sc = rdd.sparkContext
      val qB = sc.broadcast(qs)
      val local = rdd
        .mapPartitions { it =>
          it.flatMap { rp =>
            qB.value.iterator.zipWithIndex.map { case (q, qi) =>
              (qi, LocalSearch.topK(rp.index, rp.trajs, q, k))
            }
          }
        }
        .collect()
      qB.destroy()
      val perQuery = Array.fill(qs.length)(mutable.ArrayBuffer.empty[(Long, Double)])
      local.foreach { case (qi, rs) => perQuery(qi) ++= rs }
      perQuery.map(_.toArray.sortBy(r => (r._2, r._1)).take(k))
    }

    /** Per-partition workload skew for a query batch: (max / mean) of the
      * exact-distance computations each partition performs. 1.0 is perfect
      * balance — the quantity the heterogeneous strategy optimizes (§V-B);
      * per-query wall-clock equals the slowest partition's share.
      */
    def workImbalance(qs: Array[Array[Point]], k: Int): Double = {
      val sc = rdd.sparkContext
      val qB = sc.broadcast(qs)
      val perPart = rdd
        .mapPartitions { it =>
          val stats = new LocalSearch.Stats
          var hasData = false
          it.foreach { rp =>
            hasData = true
            qB.value.foreach(q => LocalSearch.topK(rp.index, rp.trajs, q, k, stats))
          }
          if (hasData) Iterator.single(stats.exactDistances) else Iterator.empty
        }
        .collect()
      qB.destroy()
      if (perPart.isEmpty || perPart.sum == 0) 1.0
      else perPart.max.toDouble / (perPart.sum.toDouble / perPart.length)
    }

    /** Index-size metric IS: summed estimated footprint of the local tries. */
    def indexBytes: Long =
      rdd.map(rp => rp.index.estimatedSizeBytes).fold(0L)(_ + _)

    /** Total trie nodes across partitions (optimized-trie effect, Fig. 7). */
    def totalNodes: Long = rdd.map(rp => rp.index.numNodes.toLong).fold(0L)(_ + _)

    def unpersist(): Unit = rdd.unpersist(blocking = true)
  }

  /** Build the distributed index. Forces materialization so timing callers
    * measure the full construction (discretization + clustering + tries).
    */
  def build(
      spark: SparkSession,
      trajs: RDD[Trajectory],
      measure: Measure,
      cfg: ReposeConfig,
  ): Index = {
    val sc = spark.sparkContext
    val mbr = trajs.map(_.mbr).reduce(_ union _)
    val grid = ZGrid.fit(mbr, cfg.delta)

    // Global pivots: selected once on the driver from a sample, broadcast.
    val sampleSize = math.max(cfg.np * 20, 100)
    val sample = trajs.takeSample(withReplacement = false, sampleSize, cfg.seed)
    val pivots =
      RPTrie.selectPivots(sample, measure, cfg.np, cfg.pivotGroups, cfg.seed)
    val pivotsB = sc.broadcast(pivots)
    val gridB = sc.broadcast(grid)

    val assigned = GlobalPartitioning.assign(trajs, cfg.strategy, cfg.numPartitions, mbr)
    val part = GlobalPartitioning.partitioned(assigned, cfg.numPartitions)
    val optimized = cfg.optimizedTrie
    val rdd: RpTrieRDD = part
      .mapPartitions { it =>
        val arr = it.toArray
        if (arr.isEmpty) Iterator.empty
        else {
          // Partition-local ids are array indices; global ids live in Trajectory.id.
          val trie = RPTrie.build(
            arr, gridB.value, measure,
            optimized = optimized, givenPivots = pivotsB.value)
          Iterator.single(RpTraj(arr, trie))
        }
      }
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count() // materialize
    new Index(rdd, measure, grid, cfg)
  }
}
