package repro.baselines

import repro.{SparkSpec, TestUtils}
import repro.baselines.dita.DITA
import repro.core._

/** DITA baseline tests: exact top-k vs brute force for Fréchet and DTW,
  * Hausdorff rejection, Heter-DITA, and the threshold-halving loop.
  */
class DITASuite extends SparkSpec {

  private val trajs = TestUtils.randomTrajs(400, maxLen = 12, seed = 229L)
  private def rdd = spark.sparkContext.parallelize(trajs.toIndexedSeq, 6)

  for (m <- Seq[Measure](Frechet, DTW)) {
    test(s"DITA top-k equals brute force (${m.name})") {
      val idx = DITA.build(rdd, m, numPartitions = 4)
      try {
        for (seed <- Seq(233L, 239L)) {
          val q = TestUtils.randomQuery(8, seed = seed)
          val got = idx.query(q, 10)
          val expected = TestUtils.bruteTopK(trajs, q, 10, m)
          TestUtils.assertTopKEqual(got, expected, trajs, q, m)
        }
      } finally idx.unpersist()
    }

    test(s"Heter-DITA (round-robin) stays exact (${m.name})") {
      val idx = DITA.build(rdd, m, numPartitions = 4, roundRobin = true)
      try {
        val q = TestUtils.randomQuery(8, seed = 241L)
        TestUtils.assertTopKEqual(
          idx.query(q, 10), TestUtils.bruteTopK(trajs, q, 10, m), trajs, q, m)
      } finally idx.unpersist()
    }
  }

  test("DITA rejects a repeated id on the driver, naming the smallest") {
    val dup = trajs ++ Seq(trajs(250).copy(points = trajs(3).points), trajs(17))
    val e = intercept[IllegalArgumentException] {
      DITA.build(spark.sparkContext.parallelize(dup.toIndexedSeq, 6), Frechet, numPartitions = 4)
    }
    assert(e.getMessage.contains("trajectory id 17 "), e.getMessage)
  }

  test("DITA rejects Hausdorff (unsupported, '/' in Table IV)") {
    intercept[IllegalArgumentException] {
      DITA.build(rdd, Hausdorff, numPartitions = 4)
    }
  }

  test("DITA k >= N returns everything") {
    val small = spark.sparkContext.parallelize(trajs.take(9).toIndexedSeq, 2)
    val idx = DITA.build(small, Frechet, numPartitions = 2)
    try {
      val q = TestUtils.randomQuery(6, seed = 251L)
      assert(idx.query(q, 50).length == 9)
    } finally idx.unpersist()
  }

  test("DITA small k (k=1) is exact") {
    val idx = DITA.build(rdd, Frechet, numPartitions = 4)
    try {
      val q = TestUtils.randomQuery(8, seed = 257L)
      TestUtils.assertTopKEqual(
        idx.query(q, 1), TestUtils.bruteTopK(trajs, q, 1, Frechet), trajs, q, Frechet)
    } finally idx.unpersist()
  }

  test("DITA index bytes positive and smaller than DFT's for the same data") {
    val dita = DITA.build(rdd, Frechet, numPartitions = 4)
    val dft = repro.baselines.dft.DFT.build(rdd, Frechet, numPartitions = 4)
    try {
      assert(dita.indexBytes > 0)
      assert(dita.indexBytes < dft.indexBytes,
        s"DITA ${dita.indexBytes} should be smaller than DFT ${dft.indexBytes}")
    } finally { dita.unpersist(); dft.unpersist() }
  }

  test("DITA query rejects an empty or non-finite query and k < 1 on the driver") {
    val idx = DITA.build(rdd, Frechet, numPartitions = 4)
    try {
      val q = TestUtils.randomQuery(8, seed = 263L)
      val nan = q.updated(2, Point(Double.NaN, 1.0))
      Seq(Array.empty[Point] -> 5, nan -> 5, q -> 0).foreach { case (bad, k) =>
        assertThrows[IllegalArgumentException](idx.query(bad, k))
      }
    } finally idx.unpersist()
  }
}
