package repro.core.partition

import repro.{SparkSpec, TestUtils}
import repro.core._

/** Global partitioning tests (§V-B): balance, cluster scattering vs
  * clustering, determinism, and the custom Partitioner wiring.
  */
class PartitioningSuite extends SparkSpec {

  private def data = {
    val trajs = TestUtils.randomTrajs(400, maxLen = 10, seed = 139L)
    spark.sparkContext.parallelize(trajs.toIndexedSeq, 8)
  }
  private val mbr = MBR(0, 0, 10, 10)

  test("IdPartitioner routes by precomputed key") {
    val p = new IdPartitioner(7)
    assert(p.numPartitions == 7)
    assert(p.getPartition(3) == 3)
  }

  for (st <- Seq[PartitionStrategy](Heterogeneous, Homogeneous, RandomPartitioning)) {
    test(s"${st.name}: every trajectory is assigned exactly once to a valid partition") {
      val assigned = GlobalPartitioning.assign(data, st, 8, mbr).collect()
      assert(assigned.length == 400)
      assert(assigned.forall { case (pid, _) => pid >= 0 && pid < 8 })
      assert(assigned.map(_._2.id).sorted.toSeq == (0L until 400L))
    }

    test(s"${st.name}: partition sizes are balanced") {
      val sizes = GlobalPartitioning.assign(data, st, 8, mbr)
        .map { case (pid, _) => (pid, 1L) }
        .reduceByKey(_ + _).values.collect()
      assert(sizes.length == 8)
      // Sorted strategies deal/chunk exactly; random hashing is binomial, so
      // allow it the mean partition size as spread.
      val tol = if (st == RandomPartitioning) 400 / 8 else math.max(2, 400 / 8 / 4)
      assert(sizes.max - sizes.min <= tol, s"unbalanced: ${sizes.toList}")
    }
  }

  test("heterogeneous scatters each cluster across partitions; homogeneous concentrates it") {
    // Two tight, far-apart bundles of identical-ish trajectories.
    def bundle(n: Int, cx: Double, cy: Double, idBase: Long): Seq[Trajectory] =
      (0 until n).map { i =>
        Trajectory(idBase + i, Array(Point(cx, cy), Point(cx + 0.01, cy + 0.01)))
      }
    val trajs = bundle(64, 1, 1, 0) ++ bundle(64, 9, 9, 64)
    val rdd = spark.sparkContext.parallelize(trajs, 4)
    val p = 8

    val het = GlobalPartitioning.assign(rdd, Heterogeneous, p, mbr).collect()
    val hetPartsOfC1 = het.filter(_._2.id < 64).map(_._1).toSet
    assert(hetPartsOfC1.size == p, s"heterogeneous left cluster on ${hetPartsOfC1.size} partitions")

    val hom = GlobalPartitioning.assign(rdd, Homogeneous, p, mbr).collect()
    val homPartsOfC1 = hom.filter(_._2.id < 64).map(_._1).toSet
    assert(homPartsOfC1.size <= p / 2, s"homogeneous spread cluster over ${homPartsOfC1.size}")
  }

  test("partitioned() places rows on their assigned partition") {
    val assigned = GlobalPartitioning.assign(data, Heterogeneous, 6, mbr)
    val placed = GlobalPartitioning.partitioned(assigned, 6)
    assert(placed.getNumPartitions == 6)
    val check = placed
      .mapPartitionsWithIndex { (pid, it) => Iterator.single((pid, it.size)) }
      .collect()
    assert(check.map(_._2).sum == 400)
  }

  test("assignment is deterministic") {
    val a = GlobalPartitioning.assign(data, Heterogeneous, 8, mbr)
      .collect().sortBy(_._2.id).map(_._1).toSeq
    val b = GlobalPartitioning.assign(data, Heterogeneous, 8, mbr)
      .collect().sortBy(_._2.id).map(_._1).toSeq
    assert(a == b)
  }

  private def finest(trajs: Array[Trajectory]): Array[Array[Int]] =
    trajs.map(GlobalPartitioning.cellSeq(_, mbr, GlobalPartitioning.MaxPrecision))

  test("clusterKeys coarsens until cluster count is near N/numPartitions") {
    val keys = GlobalPartitioning.clusterKeys(finest(data.collect()), 8)
    val distinct = keys.map(_.toSeq).distinct.length
    // target is max(8, 400/8) = 50; the sweep stops at or below it, or at the
    // coarsest precision.
    assert(distinct <= 400)
    assert(distinct >= 1)
  }

  // Every key must be the trajectory's cell sequence at the finest precision
  // with at most max(P, N/P) clusters, found here level by level from the
  // trajectories themselves. Returns the number of clusters.
  private def assertSweep(trajs: Array[Trajectory], numPartitions: Int): Int = {
    val target = math.max(numPartitions, trajs.length / numPartitions)
    def clusters(p: Int) =
      trajs.map(t => GlobalPartitioning.cellSeq(t, mbr, p).toSeq).distinct.length
    val p =
      (GlobalPartitioning.MaxPrecision to 2 by -1).find(clusters(_) <= target).getOrElse(1)
    val keys = GlobalPartitioning.clusterKeys(finest(trajs), numPartitions)
    trajs.indices.foreach { i =>
      assert(keys(i).sameElements(GlobalPartitioning.cellSeq(trajs(i), mbr, p)),
        s"key of trajectory ${trajs(i).id} is not its cell sequence at precision $p")
    }
    clusters(p)
  }

  test("clusterKeys: every key is the cell sequence at the chosen precision") {
    assertSweep(data.collect(), 8)
  }

  test("clusterKeys: far-apart jittered bundles form separate clusters") {
    // Four bundles in the four quadrants, ids interleaved across bundles; the
    // jitter makes the finest precision exceed the target, so the sweep runs.
    val rnd = new scala.util.Random(167L)
    val centers = Array((2.0, 2.0), (2.0, 8.0), (8.0, 2.0), (8.0, 8.0))
    val trajs = Array.tabulate(256) { i =>
      val (cx, cy) = centers(i % 4)
      Trajectory(i.toLong, Array.fill(3)(
        Point(cx + (rnd.nextDouble() - 0.5) * 0.4, cy + (rnd.nextDouble() - 0.5) * 0.4)))
    }
    val clusters = assertSweep(trajs, 8)
    assert(clusters >= 4, s"$clusters clusters for 4 far-apart bundles")
  }

  for (st <- Seq[PartitionStrategy](Heterogeneous, Homogeneous, RandomPartitioning)) {
    test(s"${st.name}: a repeated id is rejected on the driver, naming the smallest") {
      val trajs = TestUtils.randomTrajs(400, maxLen = 10, seed = 139L)
      val dup = trajs ++ Seq(trajs(250).copy(points = trajs(3).points), trajs(17))
      val rdd = spark.sparkContext.parallelize(dup.toIndexedSeq, 8)
      val e = intercept[IllegalArgumentException](GlobalPartitioning.assign(rdd, st, 8, mbr))
      assert(e.getMessage.contains("trajectory id 17 "), e.getMessage)
    }
  }

  test("partition size histogram matches DuckDB (oracle)") {
    import spark.implicits._
    val assigned = GlobalPartitioning.assign(data, Heterogeneous, 8, mbr)
      .map { case (pid, t) => (pid, t.id) }
      .toDF("pid", "tid")
    val hist = assigned.groupBy($"pid").count().select($"pid", $"count" as "cnt")
    repro.Oracle.assertEquivalent(
      hist,
      "SELECT pid, count(*) AS cnt FROM assigned GROUP BY pid",
      "assigned" -> assigned)
  }
}
