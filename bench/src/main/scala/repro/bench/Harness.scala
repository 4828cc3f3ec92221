package repro.bench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.baselines.LinearSearch
import repro.baselines.dft.DFT
import repro.baselines.dita.DITA
import repro.core._
import repro.core.partition.{Heterogeneous, PartitionStrategy}
import repro.data.{Datasets, TrajGen}

/** Shared measurement harness for the Table IV–IX benches and jobs.
  *
  * One `Cell` is the paper's metric triple for one (dataset, measure,
  * algorithm): average query time (s), index size (MB), index construction
  * time (s). NaN encodes the paper's "/" (unsupported / not applicable).
  */
object Harness {

  final case class Cell(qt: Double, isMB: Double, itSec: Double)

  /** Default scaled query count and k (paper: 100 queries, k = 100). */
  val QueryCount = 10
  val K = 50
  /** Spark partitions of every dataset and index. */
  private val Partitions = 16

  def timeSec[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private val cache = scala.collection.mutable.HashMap.empty[String, RDD[Trajectory]]

  /** Dataset RDD, generated once per spec and cached in memory. */
  def dataset(spark: SparkSession, spec: TrajGen.Spec): RDD[Trajectory] =
    cache.getOrElseUpdate(spec.name, {
      val rdd = TrajGen.generate(spark, spec, Partitions).persist(StorageLevel.MEMORY_ONLY)
      rdd.count()
      rdd
    })

  def mb(bytes: Long): Double = bytes / (1024.0 * 1024.0)

  /** REPOSE: build (clustering + partitioning + tries), query workload.
    * Returns the metric cell plus the per-partition workload-imbalance ratio
    * (max/mean exact distances — the load-balance mechanism of Table VII).
    */
  def runReposeFull(
      spark: SparkSession,
      spec: TrajGen.Spec,
      measure: Measure,
      queries: Array[Trajectory],
      k: Int = K,
      delta: Double = Double.NaN,
      np: Int = 5,
      strategy: PartitionStrategy = Heterogeneous,
  ): (Cell, Double) = {
    val d = if (delta.isNaN) Datasets.delta(spec, measure) else delta
    val trajs = dataset(spark, spec)
    val cfg = ReposeConfig(delta = d, np = np, numPartitions = Partitions, strategy = strategy)
    val (idx, it) = timeSec(Repose.build(spark, trajs, measure, cfg))
    val isBytes = idx.indexBytes
    // Untimed warm-up (JIT + code shipping), then one batched job for the
    // workload (amortizes job-launch overhead, as a 100-query evaluation run
    // does); QT is the per-query average.
    idx.queryBatch(queries.take(2).map(_.points), k)
    val (_, qt) = timeSec(idx.queryBatch(queries.map(_.points), k))
    val imbalance = idx.workImbalance(queries.map(_.points), k)
    idx.unpersist()
    (Cell(qt / queries.length, mb(isBytes), it), imbalance)
  }

  /** LS: no index — IS and IT are "/" (NaN). */
  def runLS(
      spark: SparkSession,
      spec: TrajGen.Spec,
      measure: Measure,
      queries: Array[Trajectory],
  ): Cell = {
    val trajs = dataset(spark, spec)
    val idx = LinearSearch.build(trajs, measure, Partitions)
    idx.queryBatch(queries.take(2).map(_.points), K)
    val (_, qt) = timeSec(idx.queryBatch(queries.map(_.points), K))
    idx.unpersist()
    Cell(qt / queries.length, Double.NaN, Double.NaN)
  }

  def runDFT(
      spark: SparkSession,
      spec: TrajGen.Spec,
      measure: Measure,
      queries: Array[Trajectory],
      roundRobin: Boolean = false,
  ): Cell = {
    val trajs = dataset(spark, spec)
    val (idx, it) = timeSec(DFT.build(trajs, measure, Partitions, heterogeneous = roundRobin))
    val isBytes = idx.indexBytes
    idx.query(queries.head.points, K) // warm-up
    val (_, qt) = timeSec(queries.foreach(q => idx.query(q.points, K)))
    idx.unpersist()
    Cell(qt / queries.length, mb(isBytes), it)
  }

  /** DITA (None for Hausdorff — unsupported, "/" row in Table IV). */
  def runDITA(
      spark: SparkSession,
      spec: TrajGen.Spec,
      measure: Measure,
      queries: Array[Trajectory],
      roundRobin: Boolean = false,
  ): Option[Cell] = {
    if (measure == Hausdorff) return None
    val trajs = dataset(spark, spec)
    val (idx, it) = timeSec(DITA.build(trajs, measure, Partitions, roundRobin = roundRobin))
    val isBytes = idx.indexBytes
    idx.query(queries.head.points, K) // warm-up
    val (_, qt) = timeSec(queries.foreach(q => idx.query(q.points, K)))
    idx.unpersist()
    Some(Cell(qt / queries.length, mb(isBytes), it))
  }

  def fmt(v: Double): String = if (v.isNaN) "/" else f"$v%.3f"

  /** Fixed-width table printer (rows of label + value columns). */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"=== $title ===")
    println(line(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(line(r)))
    println()
  }
}
