package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.{SparkSpec, TestUtils}
import repro.baselines.LinearSearch
import repro.baselines.dft.DFT
import repro.baselines.dita.DITA
import repro.core.partition.{Heterogeneous, Homogeneous, RandomPartitioning}
import repro.core.rptrie.RPTrie
import repro.core.search.{LocalSearch, TopK}

/** End-to-end REPOSE tests: the distributed pipeline (partition → per-
  * partition RP-Trie → best-first local search → global merge) must return
  * exact top-k for every measure and partitioning strategy.
  */
class ReposeSuite extends SparkSpec {

  private val trajs = TestUtils.randomTrajs(500, maxLen = 14, seed = 149L)
  private def rdd = spark.sparkContext.parallelize(trajs.toIndexedSeq, 8)

  for (m <- TestUtils.measures) {
    test(s"distributed top-k equals brute force (${m.name})") {
      val cfg = ReposeConfig(delta = 1.0, numPartitions = 6)
      val idx = Repose.build(spark, rdd, m, cfg)
      try {
        for (seed <- Seq(151L, 157L)) {
          val q = TestUtils.randomQuery(8, seed = seed)
          val got = idx.query(q, 12)
          val expected = TestUtils.bruteTopK(trajs, q, 12, m)
          TestUtils.assertTopKEqual(got, expected, trajs, q, m)
        }
      } finally idx.unpersist()
    }
  }

  for (st <- Seq(Heterogeneous, Homogeneous, RandomPartitioning)) {
    test(s"exact results under ${st.name} partitioning") {
      val cfg = ReposeConfig(delta = 1.0, numPartitions = 6, strategy = st)
      val idx = Repose.build(spark, rdd, Hausdorff, cfg)
      try {
        val q = TestUtils.randomQuery(8, seed = 163L)
        TestUtils.assertTopKEqual(
          idx.query(q, 10), TestUtils.bruteTopK(trajs, q, 10, Hausdorff),
          trajs, q, Hausdorff)
      } finally idx.unpersist()
    }
  }

  test("RpTrieRDD has one RpTraj per non-empty partition and covers all trajectories") {
    val cfg = ReposeConfig(delta = 1.0, numPartitions = 6)
    val idx = Repose.build(spark, rdd, Hausdorff, cfg)
    try {
      val counts = idx.rdd.map(_.trajs.length).collect()
      assert(counts.sum == 500)
      assert(counts.length <= 6)
      assert(idx.rdd.getNumPartitions == 6)
    } finally idx.unpersist()
  }

  test("optimized trie reduces total node count for Hausdorff (Fig. 7 effect)") {
    val idx = Repose.build(spark, rdd, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 4))
    try idx.rdd.collect().foreach { rp =>
      val plain = RPTrie.build(rp.trajs, idx.grid, Hausdorff, idx.pivots, optimized = false)
      assert(rp.index.numLabels <= plain.numLabels) // per-label nodes, as the paper counts
    } finally idx.unpersist()
  }

  test("ReposeConfig rejects fewer than one partition") {
    Seq(0, -1).foreach(n => assertThrows[IllegalArgumentException](ReposeConfig(delta = 1.0, numPartitions = n)))
  }

  test("indexBytes is positive and grows with data") {
    val small = spark.sparkContext.parallelize(trajs.take(50).toIndexedSeq, 4)
    val a = Repose.build(spark, small, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 4))
    val b = Repose.build(spark, rdd, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 4))
    try {
      assert(a.indexBytes > 0)
      assert(b.indexBytes > a.indexBytes)
    } finally { a.unpersist(); b.unpersist() }
  }

  test("query results carry correct global trajectory ids (oracle top-k check)") {
    import spark.implicits._
    val cfg = ReposeConfig(delta = 1.0, numPartitions = 6)
    val idx = Repose.build(spark, rdd, Hausdorff, cfg)
    try {
      val q = TestUtils.randomQuery(8, seed = 173L)
      val got = idx.query(q, 10)
      // Brute-force distance table as a DataFrame; top-k via SQL both in
      // Spark and DuckDB must agree with the index result.
      val dists = trajs.map(t => (t.id, Hausdorff.dist(q, t.points))).toSeq
        .toDF("tid", "dist")
      val sparkTop = dists.orderBy($"dist", $"tid").limit(10)
        .selectExpr("tid", "round(dist, 6) as dist6")
      repro.Oracle.assertEquivalent(
        sparkTop,
        "SELECT tid, round(CAST(dist AS DOUBLE), 6) AS dist6 FROM dists " +
          "ORDER BY CAST(dist AS DOUBLE), CAST(tid AS BIGINT) LIMIT 10",
        "dists" -> dists)
      val sqlIds = sparkTop.collect().map(_.getLong(0)).toSeq
      assert(got.map(_._1).toSeq == sqlIds)
    } finally idx.unpersist()
  }

  test("queryBatch answers each query exactly like individual queries") {
    val cfg = ReposeConfig(delta = 1.0, numPartitions = 5)
    val idx = Repose.build(spark, rdd, Hausdorff, cfg)
    try {
      val qs = Array(
        TestUtils.randomQuery(8, seed = 311L),
        TestUtils.randomQuery(5, seed = 313L),
        TestUtils.randomQuery(11, seed = 317L))
      val batch = idx.queryBatch(qs, 8)
      qs.zip(batch).foreach { case (q, got) =>
        TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(trajs, q, 8, Hausdorff),
          trajs, q, Hausdorff)
      }
    } finally idx.unpersist()
  }

  // A failure inside a Spark task would surface as a SparkException, so an
  // IllegalArgumentException shows the batch was rejected on the driver.
  // REPOSE and LS share the validated batch job; both must reject.
  private def assertRejected(batches: Seq[(Array[Array[Point]], Int)]): Unit = {
    val idx = Repose.build(spark, rdd, Frechet, ReposeConfig(delta = 1.0, numPartitions = 4))
    val ls = LinearSearch.build(rdd, Frechet, 4)
    try batches.foreach { case (qs, k) =>
      assertThrows[IllegalArgumentException](idx.queryBatch(qs, k))
      assertThrows[IllegalArgumentException](ls.queryBatch(qs, k))
    } finally { idx.unpersist(); ls.unpersist() }
  }

  test("queryBatch rejects an empty query trajectory") {
    assertRejected(Seq(Array(TestUtils.randomQuery(8, seed = 181L), Array.empty[Point]) -> 5))
  }

  test("queryBatch rejects a non-finite query coordinate") {
    assertRejected(Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).map { bad =>
      val q = TestUtils.randomQuery(8, seed = 191L)
      q(3) = Point(q(3).x, bad)
      Array(q) -> 5
    })
  }

  test("queryBatch rejects k < 1") {
    val qs = Array(TestUtils.randomQuery(8, seed = 193L))
    assertRejected(Seq(qs -> 0, qs -> -3))
  }

  // Every index runs the same validating MBR pass first, so each build
  // fails on the driver, naming the trajectory, before its other jobs.
  private def assertBuildRejects(bad: Trajectory): Unit = {
    val data = spark.sparkContext.parallelize(trajs.updated(37, bad).toIndexedSeq, 8)
    val builds: Seq[(String, () => Any)] = Seq(
      "REPOSE" -> (() => Repose.build(spark, data, Frechet, ReposeConfig(delta = 1.0, numPartitions = 4))),
      "LS" -> (() => LinearSearch.build(data, Frechet, 4)),
      "DFT" -> (() => DFT.build(data, Frechet, 4)),
      "DITA" -> (() => DITA.build(data, Frechet, 4)))
    builds.foreach { case (name, build) =>
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains(s"trajectory ${bad.id} "), s"$name: ${e.getMessage}")
    }
  }

  test("build rejects an empty trajectory") {
    assertBuildRejects(Trajectory(trajs(37).id, Array.empty))
  }

  test("build rejects a non-finite trajectory coordinate") {
    Seq(Double.NaN, Double.PositiveInfinity).foreach { bad =>
      val pts = trajs(37).points.clone()
      pts(1) = Point(bad, pts(1).y)
      assertBuildRejects(Trajectory(trajs(37).id, pts))
    }
  }

  // Jobs started by `f`, told apart by a local property. A marker job run
  // afterwards bounds the count: the listener bus delivers events in order,
  // so once the marker's start arrives every job of `f` has been seen.
  private def jobsRunBy(f: => Unit): Int = {
    val sc = spark.sparkContext
    val tag = "repro.test.jobs"
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(tag))).foreach(seen.add)
    }
    sc.addSparkListener(listener)
    try {
      try {
        sc.setLocalProperty(tag, "counted")
        f
        sc.setLocalProperty(tag, "marker")
        sc.parallelize(Seq(1), 1).count()
      } finally sc.setLocalProperty(tag, null)
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!seen.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(seen.contains("marker"), "the listener never saw the marker job")
      seen.toArray.count(_ == "counted")
    } finally sc.removeSparkListener(listener)
  }

  for (st <- Seq(Heterogeneous, Homogeneous, RandomPartitioning)) {
    test(s"build runs at most 5 Spark jobs under ${st.name} partitioning") {
      var idx: Repose.Index = null
      val jobs = jobsRunBy {
        idx = Repose.build(spark, rdd, Frechet,
          ReposeConfig(delta = 1.0, numPartitions = 6, strategy = st))
      }
      try assert(jobs >= 1 && jobs <= 5, s"$jobs jobs") finally idx.unpersist()
    }

    // A non-metric measure keeps no pivot, so the build draws no pivot sample.
    test(s"a DTW build runs at most 3 Spark jobs under ${st.name} partitioning") {
      var idx: Repose.Index = null
      val jobs = jobsRunBy {
        idx = Repose.build(spark, rdd, DTW,
          ReposeConfig(delta = 1.0, numPartitions = 6, strategy = st))
      }
      try assert(jobs >= 1 && jobs <= 3, s"$jobs jobs") finally idx.unpersist()
    }
  }

  test("queryBatch runs 2 Spark jobs and query runs 1") {
    val idx = Repose.build(spark, rdd, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 6))
    try {
      val qs = Array(TestUtils.randomQuery(8, seed = 353L), TestUtils.randomQuery(6, seed = 359L))
      assert(jobsRunBy(idx.queryBatch(qs, 10)) == 2)
      assert(jobsRunBy(idx.query(qs(0), 10)) == 1)
    } finally idx.unpersist()
  }

  // Ten trajectories over 24 partitions, so most partitions are empty. Round 1
  // asks each for ⌈k/24⌉ = 1 result, and its union may hold fewer than k;
  // at k = 14 the whole dataset does, so round 2 runs unbounded.
  for (st <- Seq(Heterogeneous, Homogeneous)) {
    test(s"queryBatch is exact when round 1 finds fewer than k (${st.name})") {
      val few = TestUtils.randomTrajs(10, maxLen = 14, seed = 367L)
      val data = spark.sparkContext.parallelize(few.toIndexedSeq, 3)
      val idx = Repose.build(spark, data, Frechet,
        ReposeConfig(delta = 1.0, numPartitions = 24, strategy = st))
      try {
        val qs = Array(TestUtils.randomQuery(8, seed = 373L), few(4).points)
        for (k <- Seq(1, 5, 9, 10, 14)) qs.zip(idx.queryBatch(qs, k)).foreach { case (q, got) =>
          TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(few, q, k, Frechet), few, q, Frechet)
        }
      } finally idx.unpersist()
    }
  }

  test("needsRound2 skips complete round-1 lists and searches the others") {
    val local = Array(3L -> 1.0, 8L -> 2.0, 5L -> 4.0)
    // Shorter than k₁: the whole partition, whatever the bound.
    assert(!Repose.needsRound2(local, 4, (0.5, 0L)))
    assert(!Repose.needsRound2(Array.empty, 1, (0.5, 0L)))
    // Its last pair is below (θ, id_θ): searched.
    assert(Repose.needsRound2(local, 3, (4.5, 0L)))
    // Its last pair is (θ, id_θ) itself, a sorted prefix up to the bound.
    assert(!Repose.needsRound2(local, 3, (4.0, 5L)))
    // Its last pair is strictly above (θ, id_θ), also only by id.
    assert(!Repose.needsRound2(local, 3, (4.0, 4L)))
    assert(!Repose.needsRound2(local, 3, (3.5, 9L)))
    // Unbounded (round 1 found fewer than k): only a short list is complete.
    assert(Repose.needsRound2(local, 3, TopK.Unbounded))
    assert(Repose.needsRound2(Array(1L -> Double.MaxValue), 1, TopK.Unbounded))
    assert(Repose.needsRound2(Array(1L -> Double.NaN), 1, TopK.Unbounded))
    assert(!Repose.needsRound2(local, 4, TopK.Unbounded))
  }

  // `queryBatch`'s plan replayed over the collected partitions: whether
  // round 2 searches each non-empty partition for q.
  private def round2Mask(idx: Repose.Index, q: Array[Point], k: Int): Seq[Boolean] = {
    val parts = idx.rdd.mapPartitionsWithIndex((p, it) => it.map(rp => (p, rp.index, rp.trajs))).collect()
    var mask = Array.empty[Boolean]
    Repose.twoRoundTopK(1, k, idx.rdd.getNumPartitions) { (kr, bounds, searched) =>
      mask = searched(0)
      TestUtils.runRound(parts.toSeq, Array(q))(kr, bounds, searched)
    }
    parts.map { case (p, _, _) => mask(p) }.toSeq
  }

  // Clustered placement: partitions whose clusters are far from a query hold
  // few pairs up to θ, so their round-1 lists end above it and round 2 skips
  // them. None of these k is a multiple of 6: at k = 6·k₁ the union of the
  // six full lists holds exactly k pairs, every list ends at or below θ, and
  // round 2 skips only the one that ends at θ.
  test("queryBatch is exact when round 2 skips some partitions and searches others (Homogeneous)") {
    val idx = Repose.build(spark, rdd, Frechet,
      ReposeConfig(delta = 1.0, numPartitions = 6, strategy = Homogeneous))
    try {
      val qs = Array(TestUtils.randomQuery(8, seed = 379L), trajs(17).points, TestUtils.randomQuery(5, seed = 383L))
      for (k <- Seq(2, 4, 8, 20, 40)) {
        val masks = qs.flatMap(round2Mask(idx, _, k))
        assert(masks.contains(true) && masks.contains(false), s"k = $k: $masks")
        qs.zip(idx.queryBatch(qs, k)).foreach { case (q, got) =>
          TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(trajs, q, k, Frechet), trajs, q, Frechet)
        }
      }
    } finally idx.unpersist()
  }

  // k = 2N: round 1 asks each partition for ⌈k/6⌉ > N results, so every
  // round-1 list holds its whole partition and round 2 searches none.
  test("queryBatch searches no partition in round 2 when k > N") {
    val idx = Repose.build(spark, rdd, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 6))
    try {
      val qs = Array(TestUtils.randomQuery(8, seed = 389L), trajs(3).points)
      val k = 2 * trajs.length
      qs.foreach(q => assert(!round2Mask(idx, q, k).contains(true)))
      qs.zip(idx.queryBatch(qs, k)).foreach { case (q, got) =>
        TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(trajs, q, k, Hausdorff), trajs, q, Hausdorff)
      }
    } finally idx.unpersist()
  }

  test("LS queryBatch matches brute force per query") {
    val idx = LinearSearch.build(rdd, Frechet, 5)
    try {
      val qs = Array(
        TestUtils.randomQuery(7, seed = 331L),
        TestUtils.randomQuery(9, seed = 337L))
      val batch = idx.queryBatch(qs, 6)
      qs.zip(batch).foreach { case (q, got) =>
        TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(trajs, q, 6, Frechet),
          trajs, q, Frechet)
      }
    } finally idx.unpersist()
  }

  test("workImbalance is max/mean of the partitions' exact distances") {
    val idx = Repose.build(spark, rdd, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 4))
    try {
      val qs = Array(TestUtils.randomQuery(8, seed = 347L), TestUtils.randomQuery(6, seed = 349L))
      val perPart = idx.rdd.collect().map { rp =>
        val stats = new LocalSearch.Stats
        qs.foreach(LocalSearch.topK(rp.index, rp.trajs, _, 7, stats))
        stats.exactDistances.toDouble
      }
      assert(idx.workImbalance(qs, 7) == perPart.max / (perPart.sum / perPart.length))
    } finally idx.unpersist()
  }

  test("batch of queries is stable across repeated invocations") {
    val cfg = ReposeConfig(delta = 1.0, numPartitions = 4)
    val idx = Repose.build(spark, rdd, Hausdorff, cfg)
    try {
      val q = TestUtils.randomQuery(8, seed = 179L)
      assert(idx.query(q, 5).toSeq == idx.query(q, 5).toSeq)
    } finally idx.unpersist()
  }

  test("grid fits the data with the configured delta") {
    val cfg = ReposeConfig(delta = 0.5, numPartitions = 4)
    val idx = Repose.build(spark, rdd, Hausdorff, cfg)
    try {
      assert(idx.grid.delta >= 0.5 - 1e-12)
      assert(idx.grid.l * idx.grid.delta >= 10.0)
    } finally idx.unpersist()
  }
}
