package repro.bench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Callable, Executors}

import scala.jdk.CollectionConverters._
import scala.sys.process._
import scala.util.Try

import repro.core.{Measure, Point, Repose, Trajectory, ZGrid}
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
  * of `TrajGen.queries`. Both modes compute each query's pivot distances
  * once and pass them to every trie's search, as `Repose.Index` does:
  *  - single-threaded, one query after another over all 16 tries and the
  *    merge; the p50 and p90 are over every query of every warm repeat;
  *  - as a batch through `Repose.twoRoundTopK`, the plan of
  *    `Repose.Index.queryBatch`, each round 16 tasks, one per trie, on 4
  *    threads. `r2_searched` is the share of (query, trie) pairs round 2
  *    searches.
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
    // `RPTrie.build` keeps no pivot for a non-metric measure.
    val pivots =
      if (measure.isMetric) RPTrie.selectPivots(sample, measure, 5, 10, 42L) else Array.empty[Array[Point]]
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
        val dqp = LocalSearch.pivotDistances(measure, pivots, q)
        val a = TopK.merge(K, parts.iterator.map { case (trie, ts) =>
          LocalSearch.topK(trie, ts, q, dqp, K, stats, TopK.Unbounded)
        })
        ms(i) = (System.nanoTime() - s) / 1e6
        a
      }
      (ms, answers)
    }
    val pool = Executors.newFixedThreadPool(Threads)
    // `Repose.twoRoundTopK`, each round one task per trie p counting into r1(p)
    // or r2(p): the answers and the (query, trie) pairs round 2 searched.
    def batch(r1: Array[LocalSearch.Stats], r2: Array[LocalSearch.Stats]): (Array[Array[(Long, Double)]], Int) = {
      val dq = qs.map(LocalSearch.pivotDistances(measure, pivots, _))
      val roundStats = Iterator(r1, r2)
      var searchedPairs = 0
      val answers = Repose.twoRoundTopK(nq, K, Partitions) { (k, bounds, searched) =>
        val stats = roundStats.next()
        searchedPairs = searched.map(_.count(identity)).sum
        val tasks = parts.indices.map { p =>
          val (trie, ts) = parts(p)
          (() => p -> Array.tabulate(nq) { i =>
            if (searched(i)(p)) LocalSearch.topK(trie, ts, qs(i), dq(i), k, stats(p), bounds(i))
            else Array.empty[(Long, Double)]
          }): Callable[(Int, Array[Array[(Long, Double)]])]
        }
        pool.invokeAll(tasks.asJava).asScala.map(_.get()).toArray
      }
      (answers, searchedPairs)
    }
    def perTrie() = Array.fill(Partitions)(new LocalSearch.Stats)
    // `Repeats` passes of f, each after a System.gc(): (result, ms, GC ms).
    def timed[A](f: => A): Seq[(A, Double, Double)] = Seq.fill(Repeats) {
      System.gc()
      val (g, s) = (gcMs(), System.nanoTime())
      val a = f
      (a, (System.nanoTime() - s) / 1e6, (gcMs() - g).toDouble)
    }

    try {
      val stats = new LocalSearch.Stats
      val (_, answers) = single(stats)
      val singles = timed(single(new LocalSearch.Stats))
      require(singles.forall(_._1._2.map(_.toSeq).toSeq == answers.map(_.toSeq).toSeq),
        "single-threaded answers changed between passes")
      val (r1, r2) = (perTrie(), perTrie())
      val (batchAnswers, searched) = batch(r1, r2)
      require(batchAnswers.map(_.toSeq).toSeq == answers.map(_.toSeq).toSeq,
        "batch answers differ from single-threaded ones")
      val batches = timed(batch(perTrie(), perTrie()))
      val single1 = singles.flatMap(_._1._1.toSeq)
      val batch1 = batches.map(_._2)
      def counters(sts: Array[LocalSearch.Stats]): Seq[(String, Double)] = Seq[(String, LocalSearch.Stats => Long)](
        "nodes_popped" -> (_.nodesPopped), "nodes_pushed" -> (_.nodesPushed),
        "labels_extended" -> (_.labelsExtended), "exact_dists" -> (_.exactDistances),
        "exact_before_full" -> (_.exactBeforeFull), "cut_by_endpoint" -> (_.cutByEndpoint),
        "cut_by_mbr" -> (_.cutByMbr), "abandoned" -> (_.abandoned),
      ).map { case (name, f) => name -> sts.map(f).sum.toDouble / nq }
      val (c0, c1, c2) = (counters(Array(stats)), counters(r1), counters(r2))
      val prefixed = c1.map { case (name, v) => ("r1_" + name) -> v } ++ c2.map { case (name, v) => ("r2_" + name) -> v } :+
        ("r2_searched" -> searched.toDouble / (nq * Partitions))
      val sha = git("rev-parse", "--short", "HEAD").getOrElse("unknown") +
        (if (git("status", "--porcelain", "--", ":/src").isDefined) "+dirty" else "")
      val figures = Seq[(String, Double)](
        "queries" -> nq, "k" -> K, "partitions" -> Partitions, "threads" -> Threads, "repeats" -> Repeats,
        "build_s" -> buildS,
        "single_ms_p50" -> median(single1), "single_ms_p90" -> percentile(single1, 90),
        "single_gc_ms" -> median(singles.map(_._3)),
        "batch_ms_p50" -> median(batch1), "batch_ms_p90" -> percentile(batch1, 90),
        "batch_qps" -> nq / (median(batch1) / 1e3), "batch_gc_ms" -> median(batches.map(_._3)),
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
      println(f"  ${"searched"}%-18s ${""}%14s ${fmt(1.0)}%14s ${fmt(prefixed.last._2)}%14s")
      println(s"  answer_hash        ${hash(answers)}")
      val runs = append(Paths.get(git("rev-parse", "--show-toplevel").getOrElse(".")).resolve("BENCH_local.json"), key, entry)
      println(s"  over the ${runs.length} entries of this key: median [q1, q3]")
      for (name <- Seq("single_ms_p50", "batch_ms_p50")) {
        val xs = runs.map(e => s""""$name": ([^,}]+)""".r.findFirstMatchIn(e).get.group(1).toDouble)
        println(f"  $name%-18s ${fmt(median(xs))}%14s [${fmt(percentile(xs, 25))}, ${fmt(percentile(xs, 75))}]")
      }
    } finally pool.shutdown()
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
