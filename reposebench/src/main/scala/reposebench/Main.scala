package reposebench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.{DTW, Frechet, Hausdorff, Measure, Point, Repose, ReposeConfig}
import repro.data.{Datasets, TrajGen}

/** One benchmark input: a full-size dataset analog and a measure. */
final case class Workload(name: String, spec: TrajGen.Spec, measure: Measure)

final case class Metric(name: String, value: Double, unit: String)

/** The REPOSE benchmark driver: one process, Spark `local[nproc]`.
  *
  * {{{
  * bash reposebench/run.sh --workload osm-hausdorff --seed 7 --seconds 10 --trace 0
  * }}}
  *
  * Each run sets up (session, data, a cold first build), then measures a
  * closed loop with one client: warm rebuilds for half of `--seconds`, then,
  * after an untimed warm-up of the query path, single queries and 100-query
  * batches for a quarter each. Every answer is then checked against an exact
  * reference scan. With `--trace 1` the same run records spans and Spark job
  * metrics and reports per-layer figures instead of the end-to-end ones (see
  * NOTES.md).
  */
object Main {

  /** Why each workload exists is recorded in NOTES.md. */
  val Workloads: Seq[Workload] = Seq(
    Workload("xian-dtw", Datasets.xian, DTW),
    Workload("osm-hausdorff", Datasets.osm, Hausdorff),
    Workload("tdrive-frechet", Datasets.tdrive, Frechet),
  )

  val K = 50
  val QueryCount = 100
  val Partitions = 16

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Seq[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    for {
      _ <- Either.cond(args.length % 2 == 0 && kv.size * 2 == args.length, (), "arguments come in --name value pairs")
      name <- kv.get("workload").toRight("--workload is required")
      w <- Workloads.find(_.name == name).toRight(s"unknown workload $name")
      seed <- kv.get("seed").map(_.toLongOption.toRight("--seed must be an integer"))
        .getOrElse(Right(w.spec.seed))
      seconds <- kv.getOrElse("seconds", "10").toIntOption.filter(_ > 0).toRight("--seconds must be a positive integer")
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace must be 0 or 1, not $t")
      }
    } yield Args(w, seed, seconds, trace)
  }

  def main(argv: Array[String]): Unit = parse(argv.toSeq) match {
    case Left(err) =>
      System.err.println(s"reposebench: $err")
      System.err.println(s"usage: --workload ${Workloads.map(_.name).mkString("|")} [--seed n] [--seconds s] [--trace 0|1]")
      sys.exit(2)
    case Right(a) =>
      val out = new Run(a).execute()
      out.notes.foreach(println)
      out.metrics.foreach(m => println(f"#   ${m.name}%-26s ${m.value}%14.4f ${m.unit}"))
      println(Json.result(out.correct, out.attempted, out.failed, out.metrics))
      sys.exit(0)
  }
}

final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric], notes: Seq[String])

/** One benchmark run. */
final class Run(a: Main.Args) {
  import Main._

  private val w = a.workload
  /** The seed draws another sample of the same analog: trajectory i is the
    * analog's trajectory i + sampleShift, renumbered i. The hotspot layout
    * (from the `Datasets` seed) and the 100 queries stay fixed; moving the
    * hotspots with the seed moved OSM's query figures by ±20% between seeds,
    * far more than a change worth detecting. The `Datasets` seed gives the
    * analog itself.
    */
  private val sampleShift = (a.seed - w.spec.seed) * 1000000L
  private val cores = Runtime.getRuntime.availableProcessors()
  private val tracer = new Tracer(a.trace)
  private val listener = new JobListener

  private var attempted = 0
  private var failed = 0
  private val errors = mutable.ArrayBuffer.empty[String]

  private val buildS = mutable.ArrayBuffer.empty[Double]
  private val batchS = mutable.ArrayBuffer.empty[Double]
  private val singleMs = mutable.ArrayBuffer.empty[Double]
  // Answers of every timed query operation, checked after timing ends.
  private val batchAnswers = mutable.ArrayBuffer.empty[Array[Answers.TopK]]
  private val singleAnswers = mutable.ArrayBuffer.empty[(Int, Answers.TopK)]

  private def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** A timed operation: counted as attempted, and as failed if it throws. */
  private def timedOp[A](name: String)(body: => A): Option[(A, Double)] = {
    attempted += 1
    try Some(tracer.span(name)(seconds(body)))
    catch {
      case NonFatal(e) =>
        failed += 1
        errors += s"$name: $e"
        None
    }
  }

  /** Runs `op` back to back until it has run `min` times and `budget`
    * seconds have passed.
    */
  private def closedLoop(min: Int, budget: Double)(op: Int => Unit): Unit = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < min || (System.nanoTime() - t0) / 1e9 < budget) { op(i); i += 1 }
  }

  def execute(): Outcome = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val (spark, data, first) = tracer.span("setup") {
      val spark = tracer.span("setup.session") {
        SparkSession.builder
          .master(s"local[$cores]")
          .appName(s"reposebench-${w.name}")
          .config("spark.ui.enabled", "false")
          .config("spark.driver.host", "127.0.0.1")
          .config("spark.local.dir", Paths.get(Json.OutDir, "spark-local").toAbsolutePath.toString)
          .getOrCreate()
      }
      spark.sparkContext.setLogLevel("WARN")
      if (a.trace) {
        spark.sparkContext.addSparkListener(listener)
        tracer.attach(spark.sparkContext)
      }
      val data = tracer.span("setup.data") {
        val (spec, shift) = (w.spec, sampleShift)
        val d = spark.sparkContext.parallelize(0L until spec.n.toLong, Partitions)
          .map(i => TrajGen.one(spec, i + shift).copy(id = i))
          .persist(StorageLevel.MEMORY_ONLY)
        d.count()
        d
      }
      val first = tracer.span("setup.first_build")(Repose.build(spark, data, w.measure, config))
      (spark, data, first)
    }
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val qs = TrajGen.queries(w.spec, QueryCount).map(_.points)
    var idx = first

    def build(): Repose.Index = {
      idx.unpersist()
      Repose.build(spark, data, w.measure, config)
    }
    // A full collection before the build and batch phases, so that garbage
    // from the previous phase (an unpersisted index weighs 83 MB on OSM) is
    // not collected inside the next phase's timings.
    def phase(name: String, min: Int, share: Double)(op: => Unit): Unit = {
      System.gc()
      tracer.span(name)(closedLoop(min, share * a.seconds)(_ => op))
    }
    // A traced run starts its build and batch phases with one repeat timed
    // with the listener detached, the base of trace.overhead_frac.
    def untracedSeconds(op: => Unit): Double =
      if (!a.trace) 0.0
      else {
        spark.sparkContext.removeSparkListener(listener)
        try seconds(op)._2 finally spark.sparkContext.addSparkListener(listener)
      }

    // The cold first build is the untimed repeat of the builds. Queries are
    // warmed up right before they are timed, so the job path is hot, and run
    // on the last rebuilt index, so the answer check covers a rebuild.
    val untracedBuildS = untracedSeconds { idx = build() }
    phase("builds", 1, 0.5) {
      timedOp("build")(build()).foreach { case (b, s) =>
        idx = b
        buildS += s
      }
    }
    tracer.span("warmup") {
      idx.queryBatch(qs, K)
      closedLoop(20, WarmSinglesS)(i => idx.query(qs(i % QueryCount), K))
    }
    // Whole passes over the queries, so each weighs the same in the tail.
    tracer.span("queries")(closedLoop(1, 0.25 * a.seconds) { _ =>
      qs.indices.foreach { qi =>
        timedOp("query")(idx.query(qs(qi), K)).foreach { case (ans, s) =>
          singleAnswers += qi -> ans
          singleMs += s * 1e3
        }
      }
    })
    val untracedBatchS = untracedSeconds(idx.queryBatch(qs, K))
    phase("batches", 2, 0.25) {
      timedOp("batch")(idx.queryBatch(qs, K)).foreach { case (ans, s) =>
        batchAnswers += ans
        batchS += s
      }
    }

    val layer = if (a.trace) layerMetrics(spark, idx, qs, untracedBuildS + untracedBatchS) else Nil
    val indexMb = tracer.span("index_size")(idx.indexBytes) / 1048576.0
    val reference = tracer.span("check")(check(spark, data, qs))

    val tail = Stats.highestPercentile(singleMs.length).getOrElse(0.0)
    require(tail >= 90.0, s"${singleMs.length} single queries leave fewer than 10 beyond p90")
    val endToEnd = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("build_s", Stats.median(buildS.toSeq), "s"),
      Metric("index_mb", indexMb, "MB"),
      Metric("batch_qps", QueryCount / Stats.median(batchS.toSeq), "1/s"),
      Metric("query_p50_ms", Stats.percentile(singleMs.toSeq, 50), "ms"),
      Metric("query_p90_ms", Stats.percentile(singleMs.toSeq, 90), "ms"),
    )
    if (a.trace) Json.writeTrace(w.name, a.seed, tracer, listener)
    spark.stop()

    val notes = Seq(
      s"# reposebench workload=${w.name} seed=${a.seed} nproc=$cores trace=${if (a.trace) 1 else 0}" +
        s" git=${sys.props.getOrElse("reposebench.git", "unknown")}" +
        s" jdk=${sys.props("java.version")} spark=${org.apache.spark.SPARK_VERSION}",
      s"# samples: builds=${buildS.length} batches=${batchS.length} single_queries=${singleMs.length}" +
        s" (p90 leaves ${Stats.beyond(singleMs.length, 90)} beyond; highest admissible p$tail)" +
        s" k=$K partitions=$Partitions delta=${config.delta} checked_queries=${reference.length}",
      s"# operations: attempted=$attempted failed=$failed",
    ) ++ errors.take(5).map(e => s"# failure: $e") ++
      (if (a.trace) endToEnd.map(m => f"# traced end-to-end ${m.name} ${m.value}%.4f ${m.unit}") else Nil)
    val metrics = if (a.trace) layer else endToEnd
    Outcome(failed == 0 && metrics.forall(m => m.value.isFinite), attempted, failed, metrics, notes)
  }

  private val config = ReposeConfig(delta = Datasets.delta(w.spec, w.measure), numPartitions = Partitions)

  private val WarmSinglesS = 4.0
  private val ReplayQueries = 10

  /** Checks every recorded answer against the exact reference; a timed
    * operation with any wrong answer counts as failed. Returns the reference.
    */
  private def check(
      spark: SparkSession,
      data: org.apache.spark.rdd.RDD[repro.core.Trajectory],
      qs: Array[Array[Point]],
  ): Array[Answers.TopK] = {
    val measure = w.measure
    val qsB = spark.sparkContext.broadcast(qs)
    // One partition per core: each partition must evaluate at least k exact
    // distances per query, so fewer, larger ones do less work.
    val perPart = data.coalesce(cores).mapPartitions { it =>
      val trajs = it.toArray
      val mbrs = trajs.map(_.mbr)
      Iterator.single(qsB.value.map(q => Answers.referenceTopK(trajs, mbrs, q, K, measure)))
    }.collect()
    qsB.destroy()
    val reference = qs.indices.map(qi => Answers.merge(perPart.map(_(qi)).toSeq, K)).toArray
    val byId = data.map(t => t.id -> t.points).collectAsMap()
    val dists = mutable.HashMap.empty[(Int, Long), Option[Double]]
    def distOf(qi: Int)(id: Long): Option[Double] =
      dists.getOrElseUpdate((qi, id), byId.get(id).map(measure.dist(qs(qi), _)))
    def wrong(qi: Int, got: Answers.TopK): Boolean =
      Answers.mismatch(got, reference(qi), distOf(qi)) match {
        case Some(why) => errors += s"query $qi: $why"; true
        case None      => false
      }
    batchAnswers.foreach { ans =>
      if (ans.length != qs.length || qs.indices.exists(qi => wrong(qi, ans(qi)))) failed += 1
    }
    singleAnswers.foreach { case (qi, ans) => if (wrong(qi, ans)) failed += 1 }
    reference
  }

  /** Per-layer figures of a traced run (see NOTES.md for what each moves). */
  private def layerMetrics(
      spark: SparkSession,
      idx: Repose.Index,
      qs: Array[Array[Point]],
      untracedS: Double,
  ): Seq[Metric] = {
    val noopMs = (1 to 20).map { _ =>
      tracer.span("noop")(seconds(idx.rdd.foreachPartition(_ => ())))._2 * 1e3
    }
    val probes = tracer.span("collect")(new Probes(idx, qs, K))
    val r = tracer.span("replay")(probes.replay(ReplayQueries))
    val walkNs = tracer.span("walk")(probes.walkNsPerNode())
    val extendNs = tracer.span("extend")(probes.extendNs())
    val (nsPerCell, nsPerPair) = tracer.span("dist")(probes.distCost())
    listener.drain()

    val builds = tracer.named("build")
    def perBuild(f: Span => Double): Double = Stats.median(builds.map(f))
    def layerStages(s: Span, layer: String) = listener.stagesOf(s.id).filter(st => Layers.of(st.name) == layer)
    def jobSpans(s: Span): Seq[Span] =
      listener.jobsOf(s.id).map(j => Span(-1, j.name, s.id, j.start * 1000000L, j.end * 1000000L))
    val queries = tracer.named("query")
    def perQuery(f: Span => Double): Double = Stats.mean(queries.map(f))
    def taskMaxMs(s: Span): Double = listener.stagesOf(s.id).map(_.maxTaskMs).maxOption.getOrElse(0L).toDouble
    def setup(name: String): Double = tracer.named(name).head.ms / 1e3
    val n = idx.rdd.map(_.trajs.length.toLong).fold(0L)(_ + _)

    Seq(
      Metric("repose.build_jobs", perBuild(b => listener.jobsOf(b.id).length), "count"),
      Metric("repose.build_driver_ms", perBuild(b => Tracer.selfNs(b, jobSpans(b)) / 1e6), "ms"),
      Metric("repose.noop_job_ms", Stats.median(noopMs), "ms"),
      Metric("repose.query_sched_ms", Stats.median(queries.map(q => q.ms - taskMaxMs(q))), "ms"),
      Metric("repose.query_task_max_ms", perQuery(taskMaxMs), "ms"),
      Metric("repose.query_gc_ms", perQuery(q => listener.stagesOf(q.id).map(_.gcMs).sum.toDouble), "ms"),
      Metric("partition.wall_ms", perBuild(b => layerStages(b, "partition").map(_.wallMs).sum.toDouble), "ms"),
      Metric("partition.cpu_ms", perBuild(b => layerStages(b, "partition").map(_.cpuNs).sum / 1e6), "ms"),
      Metric("partition.jobs", perBuild(b => listener.jobsOf(b.id).count(j => Layers.of(j.name) == "partition")), "count"),
      Metric("partition.shuffle_mb", perBuild(b => layerStages(b, "partition").map(_.shuffleBytes).sum / 1048576.0), "MB"),
      Metric("partition.work_imbalance", r.imbalance, "ratio"),
      Metric("rptrie.build_wall_ms", perBuild(b => layerStages(b, "rptrie").map(_.wallMs).sum.toDouble), "ms"),
      Metric("rptrie.build_cpu_ms", perBuild(b => layerStages(b, "rptrie").map(_.cpuNs).sum / 1e6), "ms"),
      Metric("rptrie.build_gc_ms", perBuild(b => layerStages(b, "rptrie").map(_.gcMs).sum.toDouble), "ms"),
      Metric("rptrie.nodes", idx.totalNodes.toDouble, "count"),
      Metric("rptrie.bytes_per_traj", idx.indexBytes.toDouble / n, "B"),
      Metric("rptrie.walk_ns_per_node", walkNs, "ns"),
      Metric("search.local_ms", r.localMs, "ms"),
      Metric("search.slowest_part_ms", r.slowestPartMs, "ms"),
      Metric("search.nodes_popped", r.popped, "count"),
      Metric("search.nodes_pushed", r.pushed, "count"),
      Metric("search.exact_dists", r.exact, "count"),
      Metric("search.useful_ratio", K / r.exact, "ratio"),
      Metric("bounds.extend_ns", extendNs, "ns"),
      Metric("dist.ns_per_cell", nsPerCell, "ns"),
      Metric("dist.est_share", r.exact * nsPerPair / (r.localMs * 1e6), "est_frac"),
      Metric("setup.session_s", setup("setup.session"), "s"),
      Metric("setup.data_s", setup("setup.data"), "s"),
      Metric("setup.first_build_s", setup("setup.first_build"), "s"),
      Metric("trace.overhead_frac", (Stats.median(buildS.toSeq) + Stats.median(batchS.toSeq)) / untracedS - 1, "frac"),
    )
  }
}

/** The result line, and the span file of a traced run. */
object Json {
  val OutDir = "reposebench/out"

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def num(d: Double): String = if (d.isFinite) d.toString else "null"

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s"${str(m.name)}: {\"value\": ${num(m.value)}, \"unit\": ${str(m.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** Writes every span (the benchmark's, then Spark's jobs and stages under
    * the span that caused them) and the self time of each span name.
    */
  def writeTrace(workload: String, seed: Long, tracer: Tracer, listener: JobListener): Unit = {
    listener.drain()
    val own = tracer.all
    var next = own.length
    val spark = listener.synchronized {
      listener.jobs.values.toSeq.flatMap { j =>
        val job = Span(next, s"job:${j.name}", j.span, j.start * 1000000L, j.end * 1000000L)
        next += 1
        job +: j.stageIds.flatMap(listener.stages.get).filter(_.completed > 0).map { st =>
          next += 1
          Span(next - 1, s"stage:${st.name}", job.id, st.submitted * 1000000L, st.completed * 1000000L)
        }
      }
    }
    val all = own ++ spark
    val children = all.groupBy(_.parent)
    val self = all.groupBy(_.name).view.mapValues(_.map(s => Tracer.selfNs(s, children.getOrElse(s.id, Nil)) / 1e6).sum)
    val spanLines = all.map(s =>
      s"""{"id": ${s.id}, "name": ${str(s.name)}, "parent": ${s.parent}, "start_ns": ${s.start}, "end_ns": ${s.end}}""")
    val selfLines = self.toSeq.sortBy(-_._2).map { case (n, ms) => s"${str(n)}: ${num(ms)}" }
    val body = s"""{"workload": ${str(workload)}, "seed": $seed,\n "self_ms": {${selfLines.mkString(",\n  ")}},\n "spans": [\n  ${spanLines.mkString(",\n  ")}\n]}\n"""
    val path = Paths.get(OutDir, s"trace-$workload-seed$seed.json")
    Files.createDirectories(path.getParent)
    Files.write(path, body.getBytes(StandardCharsets.UTF_8))
  }
}
