package repro.core

import scala.util.Random

import repro.{SparkSpec, TestUtils}
import repro.core.partition.{Heterogeneous, Homogeneous, RandomPartitioning}

/** `queryBatch` over random data, for every measure, partitioning strategy
  * and several partition counts: `Repose.build` and both rounds, including
  * round 2's skip of the partitions round 1 left complete and the unbounded
  * fallback, must return the brute-force top-k element for element. Each
  * case draws its data, queries, k values and δ from its own fixed seed.
  */
class BatchPropertySuite extends SparkSpec {

  for (st <- Seq(Heterogeneous, Homogeneous, RandomPartitioning); parts <- Seq(1, 5, 16)) {
    test(s"queryBatch equals brute force on random data: ${st.name}, $parts partitions") {
      val rnd = new Random(31L * parts + st.name.hashCode)
      val trajs = TestUtils.randomTrajs(60 + rnd.nextInt(140), maxLen = 3 + rnd.nextInt(14), seed = rnd.nextLong())
      val data = spark.sparkContext.parallelize(trajs.toIndexedSeq, 4)
      // Three random queries and one on the data. The largest k is past N,
      // where round 1's union holds fewer than k and round 2 is unbounded.
      val qs = Array.fill(3)(TestUtils.randomQuery(1 + rnd.nextInt(12), seed = rnd.nextLong())) :+
        trajs(rnd.nextInt(trajs.length)).points
      val ks = Seq(1, 2 + rnd.nextInt(10), 12 + rnd.nextInt(40), trajs.length + 1)
      TestUtils.measures.foreach { m =>
        val cfg = ReposeConfig(delta = if (rnd.nextBoolean()) 0.5 else 1.0, numPartitions = parts, strategy = st)
        val idx = Repose.build(spark, data, m, cfg)
        try for (k <- ks; (q, got) <- qs.zip(idx.queryBatch(qs, k))) withClue(s"${m.name}, k = $k: ") {
          TestUtils.assertTopKEqual(got, TestUtils.bruteTopK(trajs, q, k, m), trajs, q, m)
        } finally idx.unpersist()
      }
    }
  }
}
