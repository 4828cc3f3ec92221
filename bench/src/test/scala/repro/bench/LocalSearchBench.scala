package repro.bench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Callable, Executors}

import scala.jdk.CollectionConverters._
import scala.sys.process._
import scala.util.Try

import repro.core.{Measure, Trajectory, ZGrid}
import repro.core.rptrie.RPTrie
import repro.core.search.{LocalSearch, TopK}
import repro.data.{Datasets, TrajGen}

/** Spark-free replay of REPOSE's local search on a full-size `Datasets`
  * analog: the layer under Spark's per-job overhead.
  *
  * {{{
  * sbt "bench/Test/runMain repro.bench.LocalSearchBench --dataset OSM --measure Hausdorff"
  * sbt "bench/Test/runMain repro.bench.LocalSearchBench --dataset Xian --measure DTW"
  * }}}
  *
  * Builds the analog into 16 optimized tries, one per partition (ids dealt
  * round-robin; global pivots from an id-strided sample, as `Repose.build`
  * selects them from a sample), then replays 100 k = 50 top-k queries
  * of `TrajGen.queries`:
  *  - single-threaded, one query after another over all 16 tries and the
  *    merge; the p50 and p90 are over every query of every warm repeat;
  *  - as a batch in the two rounds of `Repose.Index.queryBatch`: 16 tasks,
  *    one per trie, on 4 threads, answer every query at ⌈k/16⌉ and are
  *    merged per query; 16 more answer every query at k, each search
  *    bounded by its query's merged k-th pair (θ, id_θ), and are merged
  *    again.
  * Each mode makes one untimed warm pass and then 5 timed ones. It prints
  * the figures and `LocalSearch.Stats` per query: the single-threaded
  * (one-round) search's, then each batch round's (`r1_`, `r2_`). It appends
  * one entry to `BENCH_local.json` at the top of the checkout, one entry per
  * line, keyed by (dataset, measure, git SHA, cores); the SHA reads `+dirty`
  * when `src/` differs from that commit. One run is one draw of timings
  * that spread ±20% at one commit, so it then prints the median and
  * quartiles of `single_ms_p50` and `batch_ms_p50` over every entry of its
  * key. The answer hash covers every id and distance bit, so two commits
  * that search alike print the same hash and the same counters.
  */
object LocalSearchBench {

  val K = 50
  val Partitions = 16
  val Threads = 4
  val Queries = 100
  val Repeats = 5

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    require(argv.length == 2 * kv.size && kv.keySet.subsetOf(Set("dataset", "measure")),
      s"usage: LocalSearchBench [--dataset NAME] [--measure NAME], got: ${argv.mkString(" ")}")
    // Letters only, so that Xi'an can be given as Xian.
    def key(name: String) = name.filter(_.isLetter).toLowerCase
    val spec = Datasets.all.find(s => key(s.name) == key(kv.getOrElse("dataset", "OSM")))
      .getOrElse(sys.error(s"--dataset is one of ${Datasets.all.map(_.name).mkString(", ")}"))
    val measure = Datasets.tableMeasures.find(_.name.equalsIgnoreCase(kv.getOrElse("measure", "Hausdorff")))
      .getOrElse(sys.error(s"--measure is one of ${Datasets.tableMeasures.map(_.name).mkString(", ")}"))
    run(spec, measure)
  }

  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Nearest-rank percentile. */
  private def percentile(xs: Seq[Double], p: Int): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
  }

  private def hash(answers: Array[Array[(Long, Double)]]): String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L }
    answers.foreach { a =>
      mix(a.length.toLong)
      a.foreach { case (id, d) => mix(id); mix(java.lang.Double.doubleToLongBits(d)) }
    }
    f"$h%016x"
  }

  private def git(args: String*): Option[String] =
    Try(Process("git" +: args).!!(ProcessLogger(_ => ())).trim).toOption.filter(_.nonEmpty)

  def run(spec: TrajGen.Spec, measure: Measure): Unit = {
    val nq = Queries
    val cores = Runtime.getRuntime.availableProcessors()
    val t0 = System.nanoTime()
    val trajs = Array.tabulate(spec.n)(i => TrajGen.one(spec, i.toLong))
    val mbr = trajs.iterator.map(_.mbr).reduce(_ union _)
    val grid = ZGrid.fit(mbr, Datasets.delta(spec, measure))
    val sample = trajs.indices.by(math.max(1, trajs.length / 100)).map(trajs(_)).toArray
    val pivots = RPTrie.selectPivots(sample, measure, 5, 10, 42L)
    val parts: Array[(RPTrie, Array[Trajectory])] = Array.tabulate(Partitions) { p =>
      val ts = trajs.filter(_.id % Partitions == p)
      (RPTrie.build(ts, grid, measure, pivots), ts)
    }
    val buildS = (System.nanoTime() - t0) / 1e9
    val qs = TrajGen.queries(spec, nq).map(_.points)

    // Single-threaded: per-query ms, answers, counters.
    def single(stats: LocalSearch.Stats): (Array[Double], Array[Array[(Long, Double)]]) = {
      val ms = new Array[Double](nq)
      val answers = qs.zipWithIndex.map { case (q, i) =>
        val s = System.nanoTime()
        val a = TopK.merge(K, parts.iterator.map { case (trie, ts) => LocalSearch.topK(trie, ts, q, K, stats) })
        ms(i) = (System.nanoTime() - s) / 1e6
        a
      }
      (ms, answers)
    }
    val pool = Executors.newFixedThreadPool(Threads)
    // One round of the batch: the top-k of every query, each search bounded
    // by its query's entry of `bounds`, one task per trie; every task's
    // counters are added to `stats`.
    def round(k: Int, bounds: Array[(Double, Long)], stats: LocalSearch.Stats): Array[Array[(Long, Double)]] = {
      val tasks = parts.toSeq.map { case (trie, ts) =>
        new Callable[(Array[Array[(Long, Double)]], LocalSearch.Stats)] {
          def call() = {
            val s = new LocalSearch.Stats
            (qs.indices.map(i => LocalSearch.topK(trie, ts, qs(i), k, s, bounds(i))).toArray, s)
          }
        }
      }
      val rows = pool.invokeAll(tasks.asJava).asScala.map(_.get()).toArray
      rows.foreach { case (_, s) => addTo(stats, s) }
      Array.tabulate(nq)(qi => TopK.merge(K, rows.iterator.map(_._1(qi))))
    }
    def batch(r1: LocalSearch.Stats, r2: LocalSearch.Stats): Array[Array[(Long, Double)]] = {
      val first = round((K + Partitions - 1) / Partitions, Array.fill(nq)(TopK.Unbounded), r1)
      round(K, first.map(TopK.boundOf(K, _)), r2)
    }

    try {
      val stats = new LocalSearch.Stats
      val (_, answers) = single(stats)
      val singleMs = Seq.newBuilder[Double]
      val singleGc = Seq.newBuilder[Double]
      for (_ <- 1 to Repeats) {
        System.gc()
        val g = gcMs()
        val (ms, a) = single(new LocalSearch.Stats)
        singleGc += (gcMs() - g).toDouble
        require(a.map(_.toSeq).toSeq == answers.map(_.toSeq).toSeq, "single-threaded answers changed between passes")
        singleMs ++= ms
      }
      val (r1, r2) = (new LocalSearch.Stats, new LocalSearch.Stats)
      require(batch(r1, r2).map(_.toSeq).toSeq == answers.map(_.toSeq).toSeq,
        "batch answers differ from single-threaded ones")
      val batchMs = Seq.newBuilder[Double]
      val batchGc = Seq.newBuilder[Double]
      for (_ <- 1 to Repeats) {
        System.gc()
        val g = gcMs()
        val s = System.nanoTime()
        batch(new LocalSearch.Stats, new LocalSearch.Stats)
        batchMs += (System.nanoTime() - s) / 1e6
        batchGc += (gcMs() - g).toDouble
      }
      val single1 = singleMs.result()
      val batch1 = batchMs.result()
      def counters(st: LocalSearch.Stats): Seq[(String, Double)] = Seq(
        "nodes_popped" -> st.nodesPopped, "nodes_pushed" -> st.nodesPushed,
        "labels_extended" -> st.labelsExtended, "exact_dists" -> st.exactDistances,
        "exact_before_full" -> st.exactBeforeFull, "cut_by_endpoint" -> st.cutByEndpoint,
        "cut_by_mbr" -> st.cutByMbr, "abandoned" -> st.abandoned,
      ).map { case (name, x) => name -> x.toDouble / nq }
      val (c0, c1, c2) = (counters(stats), counters(r1), counters(r2))
      val prefixed = c1.map { case (name, v) => ("r1_" + name) -> v } ++ c2.map { case (name, v) => ("r2_" + name) -> v }
      val sha = git("rev-parse", "--short", "HEAD").getOrElse("unknown") +
        (if (git("status", "--porcelain", "--", ":/src").isDefined) "+dirty" else "")
      val figures = Seq[(String, Double)](
        "queries" -> nq, "k" -> K, "partitions" -> Partitions, "threads" -> Threads, "repeats" -> Repeats,
        "build_s" -> buildS,
        "single_ms_p50" -> median(single1), "single_ms_p90" -> percentile(single1, 90),
        "single_gc_ms" -> median(singleGc.result()),
        "batch_ms_p50" -> median(batch1), "batch_ms_p90" -> percentile(batch1, 90),
        "batch_qps" -> nq / (median(batch1) / 1e3), "batch_gc_ms" -> median(batchGc.result()),
      )
      val key = s"""{"dataset": "${spec.name}", "measure": "${measure.name}", "git": "$sha", "cores": $cores, """
      val entry = key + (figures ++ c0 ++ prefixed).map { case (k, v) => s""""$k": ${fmt(v)}""" }.mkString(", ") +
        s""", "answer_hash": "${hash(answers)}"}"""
      println(s"LocalSearchBench ${spec.name} / ${measure.name} / git $sha / $cores cores (single-threaded ms per query; batch ms for all $nq)")
      figures.foreach { case (k, v) => println(f"  $k%-18s ${fmt(v)}%14s") }
      println(f"  ${"per query"}%-18s ${"single"}%14s ${"batch round 1"}%14s ${"batch round 2"}%14s")
      c0.indices.foreach { i =>
        println(f"  ${c0(i)._1}%-18s ${fmt(c0(i)._2)}%14s ${fmt(c1(i)._2)}%14s ${fmt(c2(i)._2)}%14s")
      }
      println(s"  answer_hash        ${hash(answers)}")
      val runs = append(Paths.get(git("rev-parse", "--show-toplevel").getOrElse(".")).resolve("BENCH_local.json"), key, entry)
      println(s"  over the ${runs.length} entries of this key: median [q1, q3]")
      for (name <- Seq("single_ms_p50", "batch_ms_p50")) {
        val xs = runs.map(e => s""""$name": ([^,}]+)""".r.findFirstMatchIn(e).get.group(1).toDouble)
        println(f"  $name%-18s ${fmt(median(xs))}%14s [${fmt(percentile(xs, 25))}, ${fmt(percentile(xs, 75))}]")
      }
    } finally pool.shutdown()
  }

  private def addTo(to: LocalSearch.Stats, from: LocalSearch.Stats): Unit = {
    to.nodesPopped += from.nodesPopped
    to.nodesPushed += from.nodesPushed
    to.labelsExtended += from.labelsExtended
    to.exactDistances += from.exactDistances
    to.exactBeforeFull += from.exactBeforeFull
    to.cutByEndpoint += from.cutByEndpoint
    to.cutByMbr += from.cutByMbr
    to.abandoned += from.abandoned
  }

  private def fmt(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else f"$v%.3f"

  /** Appends `entry` to the one-entry-per-line array and returns the
    * entries that start with `key`, `entry` last.
    */
  private def append(file: Path, key: String, entry: String): Seq[String] = {
    val old = if (Files.exists(file)) Files.readAllLines(file, StandardCharsets.UTF_8).asScala.toSeq else Nil
    val entries = old.map(_.trim.stripSuffix(",")).filter(_.startsWith("{")) :+ entry
    Files.write(file, entries.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
    println(s"  wrote $file")
    entries.filter(_.startsWith(key))
  }
}
