package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtils
import repro.core.search.TopK

/** `Repose.twoRoundTopK` without Spark, over one trie per id-mod-P slice:
  * brute-force answers, and round 2 searches what `needsRound2` marks.
  */
class TwoRoundSuite extends AnyFunSuite {

  private val P = 5
  private val datasets = Seq(
    "random" -> TestUtils.randomTrajs(80, maxLen = 12, seed = 431L),
    "tied" -> TestUtils.tiedTrajs(40, seed = 433L))

  for ((name, trajs) <- datasets; m <- TestUtils.measures) {
    test(s"twoRoundTopK equals brute force and searches what needsRound2 marks: $name, ${m.name}") {
      val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
      val parts = (0 until P).map { p =>
        val slice = trajs.filter(_.id % P == p)
        (p, TestUtils.trie(slice, grid, m), slice)
      }
      val qs = Array(TestUtils.randomQuery(8, seed = 439L), trajs(7).points)
      // k = 3·P: round 1 asks for k₁ = 3 and its union is the P full lists.
      for (k <- Seq(1, 3 * P, trajs.length + 1)) withClue(s"k = $k: ") {
        val calls = Seq.newBuilder[(Int, Array[(Double, Long)], Array[Array[Boolean]], Array[(Int, Array[Array[(Long, Double)]])])]
        val got = Repose.twoRoundTopK(qs.length, k, P) { (kr, bounds, searched) =>
          val rows = TestUtils.runRound(parts, qs)(kr, bounds, searched)
          calls += ((kr, bounds, searched, rows)); rows
        }
        val Seq((k1, bounds1, searched1, first), (k2, bounds, searched, _)) = calls.result()
        assert(k1 == (k + P - 1) / P && k2 == k && bounds1.forall(_ == TopK.Unbounded) && searched1.flatten.forall(identity))
        for (qi <- qs.indices) {
          assert(bounds(qi) == TopK.boundOf(k, TopK.merge(k, first.iterator.map(_._2(qi)))))
          first.foreach { case (p, lists) => assert(searched(qi)(p) == Repose.needsRound2(lists(qi), k1, bounds(qi))) }
          TestUtils.assertTopKEqual(got(qi), TestUtils.bruteTopK(trajs, qs(qi), k, m), trajs, qs(qi), m)
        }
      }
    }
  }
}
