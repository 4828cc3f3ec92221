package repro.baselines

import scala.util.Random

import repro.{SparkSpec, TestUtils}
import repro.baselines.dft.{DFT, RTree}
import repro.core._

/** DFT baseline tests: STR R-tree range reporting vs linear scan, and
  * exact top-k vs brute force for the supported measures.
  */
class DFTSuite extends SparkSpec {

  // ---- R-tree ------------------------------------------------------------

  private def randomMbrs(n: Int, seed: Long): Array[MBR] = {
    val rnd = new Random(seed)
    Array.fill(n) {
      val x = rnd.nextDouble() * 100; val y = rnd.nextDouble() * 100
      MBR(x, y, x + rnd.nextDouble() * 3, y + rnd.nextDouble() * 3)
    }
  }

  test("RTree.searchWithin reports exactly the entries within theta of the point set") {
    val mbrs = randomMbrs(500, 181L)
    val tree = RTree.pack(mbrs)
    val pts = TestUtils.randomQuery(5, span = 100.0, seed = 191L)
    for (theta <- Seq(0.5, 3.0, 10.0, 50.0)) {
      val got = scala.collection.mutable.Set.empty[Int]
      tree.searchWithin(pts, theta)(got += _)
      val expected = mbrs.indices.filter(i => pts.map(mbrs(i).minDist).min <= theta).toSet
      assert(got.toSet == expected, s"theta=$theta: got ${got.size}, expected ${expected.size}")
    }
  }

  test("RTree handles a single entry") {
    val tree = RTree.pack(Array(MBR(0, 0, 1, 1)))
    var hits = 0
    tree.searchWithin(Array(Point(0.5, 0.5)), 0.1)(_ => hits += 1)
    assert(hits == 1)
  }

  test("RTree packs large entry counts with bounded fanout") {
    val mbrs = randomMbrs(5000, 193L)
    val tree = RTree.pack(mbrs, fanout = 8)
    var count = 0
    tree.searchWithin(Array(Point(50, 50)), 1000.0)(_ => count += 1)
    assert(count == 5000)
  }

  // ---- DFT end-to-end ----------------------------------------------------

  private val trajs = TestUtils.randomTrajs(400, maxLen = 12, seed = 197L)
  private def rdd = spark.sparkContext.parallelize(trajs.toIndexedSeq, 6)

  for (m <- Seq[Measure](Hausdorff, Frechet, DTW)) {
    test(s"DFT top-k equals brute force (${m.name})") {
      val idx = DFT.build(rdd, m, numPartitions = 4)
      try {
        for (seed <- Seq(199L, 211L)) {
          val q = TestUtils.randomQuery(8, seed = seed)
          val got = idx.query(q.toArray, 10)
          val expected = TestUtils.bruteTopK(trajs, q, 10, m)
          TestUtils.assertTopKEqual(got, expected, trajs, q, m)
        }
      } finally idx.unpersist()
    }
  }

  test("homogeneous DFT rejects a repeated id on the driver, naming the smallest") {
    val dup = trajs ++ Seq(trajs(250).copy(points = trajs(3).points), trajs(17))
    val e = intercept[IllegalArgumentException] {
      DFT.build(spark.sparkContext.parallelize(dup.toIndexedSeq, 6), Hausdorff, numPartitions = 4)
    }
    assert(e.getMessage.contains("trajectory id 17 "), e.getMessage)
  }

  test("Heter-DFT (heterogeneous trajectory placement) stays exact") {
    val idx = DFT.build(rdd, Hausdorff, numPartitions = 4, heterogeneous = true)
    try {
      val q = TestUtils.randomQuery(8, seed = 223L)
      TestUtils.assertTopKEqual(
        idx.query(q, 10), TestUtils.bruteTopK(trajs, q, 10, Hausdorff),
        trajs, q, Hausdorff)
    } finally idx.unpersist()
  }

  test("DFT k >= N returns everything") {
    val small = spark.sparkContext.parallelize(trajs.take(8).toIndexedSeq, 2)
    val idx = DFT.build(small, Hausdorff, numPartitions = 2)
    try {
      val q = TestUtils.randomQuery(6, seed = 227L)
      assert(idx.query(q, 100).length == 8)
    } finally idx.unpersist()
  }

  test("DFT index size includes the dual-index overhead") {
    val idx = DFT.build(rdd, Hausdorff, numPartitions = 4)
    try {
      assert(idx.indexBytes > 0)
    } finally idx.unpersist()
  }

  test("DFT segment counts cover every trajectory") {
    val idx = DFT.build(rdd, Hausdorff, numPartitions = 4)
    try {
      assert(idx.segCounts.keySet == trajs.map(_.id).toSet)
      trajs.foreach(t => assert(idx.segCounts(t.id) == math.max(1, t.length - 1)))
    } finally idx.unpersist()
  }

  // The MBR pass, the (id, segment count) collect, sortByKey's range sample,
  // zipWithIndex's count, the segment and dual-index materializing counts,
  // and the sample pool's two jobs.
  test("DFT build runs at most 8 Spark jobs") {
    var idx: DFT.Index = null
    val jobs = jobsRunBy { idx = DFT.build(rdd, Hausdorff, numPartitions = 4) }
    try assert(jobs >= 1 && jobs <= 8, s"$jobs jobs") finally idx.unpersist()
  }

  test("DFT query rejects an empty or non-finite query and k < 1 on the driver") {
    val idx = DFT.build(rdd, Frechet, numPartitions = 4)
    try {
      val q = TestUtils.randomQuery(8, seed = 263L)
      val nan = q.updated(2, Point(Double.NaN, 1.0))
      Seq(Array.empty[Point] -> 5, nan -> 5, q -> 0).foreach { case (bad, k) =>
        assertThrows[IllegalArgumentException](idx.query(bad, k))
      }
    } finally idx.unpersist()
  }
}
