package repro

import repro.baselines.LinearSearch
import repro.baselines.dft.DFT
import repro.baselines.dita.DITA
import repro.core._
import repro.core.partition.{Heterogeneous, Homogeneous, RandomPartitioning}

/** Byte-identical answers under distance ties: on data where every
  * trajectory appears twice (the larger id first), REPOSE under every
  * partitioning and partition count, LS, DFT and DITA must all return the
  * brute-force top-k in (distance, id) order, element for element.
  */
class TieSuite extends SparkSpec {

  private val trajs = TestUtils.tiedTrajs(100, seed = 401L)
  private def rdd = spark.sparkContext.parallelize(trajs.toIndexedSeq, 8)
  // One query on the data (distance 0 to both copies), one off it.
  private val queries = Array(trajs(6).points, TestUtils.randomQuery(8, seed = 409L))
  private val ks = Seq(1, 5, 11)

  /** Checks `answers(k)`, the top-k of each query, against brute force. */
  private def assertExact(m: Measure)(answers: Int => Array[Array[(Long, Double)]]): Unit =
    for (k <- ks; (q, got) <- queries.zip(answers(k)))
      TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(trajs, q, k, m), trajs, q, m)

  for (st <- Seq(Heterogeneous, Homogeneous, RandomPartitioning); parts <- Seq(1, 4, 16)) {
    test(s"REPOSE breaks distance ties by id: ${st.name}, $parts partitions") {
      TestUtils.measures.foreach { m =>
        val cfg = ReposeConfig(delta = 1.0, numPartitions = parts, strategy = st)
        val idx = Repose.build(spark, rdd, m, cfg)
        try assertExact(m)(idx.queryBatch(queries, _)) finally idx.unpersist()
      }
    }
  }

  test("LS breaks distance ties by id") {
    TestUtils.measures.foreach { m =>
      val idx = LinearSearch.build(rdd, m, 4)
      try assertExact(m)(idx.queryBatch(queries, _)) finally idx.unpersist()
    }
  }

  for (m <- Seq[Measure](Hausdorff, Frechet, DTW)) {
    test(s"DFT breaks distance ties by id (${m.name})") {
      val idx = DFT.build(rdd, m, numPartitions = 4)
      try assertExact(m)(k => queries.map(idx.query(_, k))) finally idx.unpersist()
    }
  }

  for (m <- Seq[Measure](Frechet, DTW)) {
    test(s"DITA breaks distance ties by id (${m.name})") {
      val idx = DITA.build(rdd, m, numPartitions = 4)
      try assertExact(m)(k => queries.map(idx.query(_, k))) finally idx.unpersist()
    }
  }
}
