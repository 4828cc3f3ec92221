package repro.core.rptrie

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

import repro.TestUtils
import repro.core._

/** Succinct encoding tests. The trie has one child encoding, the sparse one
  * that was the all-sparse end of the former dense/sparse level split, so the
  * default build is the all-sparse encoding. The cases keep their names and
  * check that two builds of one input traverse identically, payloads
  * included: Spark rebuilds a partition's trie when it recomputes an evicted
  * partition, and the answers must not change.
  */
class SuccinctSuite extends AnyFunSuite {

  private val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
  private val trajs = TestUtils.randomTrajs(120, maxLen = 12, seed = 131L)

  private val measures: Seq[Measure] = Seq(
    Hausdorff, Frechet, DTW, ERP(Point(5, 5)), LCSS(1.0), EDR(1.0))

  private def children(t: RPTrie, v: Int): Seq[(Int, Int)] = {
    val buf = mutable.ArrayBuffer.empty[(Int, Int)]
    t.foreachChild(v)((z, c) => buf += ((z, c)))
    buf.toSeq
  }

  private def assertEquivalent(a: RPTrie, b: RPTrie): Unit = {
    assert(a.numNodes == b.numNodes)
    for (v <- 0 until a.numNodes) {
      val ac = children(a, v)
      val bc = children(b, v)
      assert(ac == bc, s"children differ at node $v: $ac vs $bc")
      assert(TestUtils.run(a, v) == TestUtils.run(b, v), s"runs differ at node $v")
      assert(a.childCount(v) == b.childCount(v))
      assert(a.childCount(v) == ac.length)
      assert(a.tids(v).toSeq == b.tids(v).toSeq, s"tids differ at $v")
      assert((a.tidFrom(v) until a.tidUntil(v)).map(a.tidAt) == a.tids(v).toSeq)
      assert(a.dmax(v) == b.dmax(v))
      assert(a.maxDev(v) == b.maxDev(v))
      for (p <- a.pivots.indices) {
        assert(a.hrMin(v, p) == b.hrMin(v, p))
        assert(a.hrMax(v, p) == b.hrMax(v, p))
      }
    }
  }

  for (m <- measures; opt <- Seq(false, true)) {
    test(s"default and all-sparse encodings traverse identically (${m.name}, optimized=$opt)") {
      assertEquivalent(TestUtils.trie(trajs, grid, m, np = 3, optimized = opt),
        TestUtils.trie(trajs, grid, m, np = 3, optimized = opt))
    }
  }

  test("search results are identical on default and all-sparse encodings") {
    val q = TestUtils.randomQuery(9, seed = 137L)
    val statsA = new repro.core.search.LocalSearch.Stats
    val statsB = new repro.core.search.LocalSearch.Stats
    val a = repro.core.search.LocalSearch.topK(
      TestUtils.trie(trajs, grid, Hausdorff, np = 3), trajs, q, 15, statsA)
    val b = repro.core.search.LocalSearch.topK(
      TestUtils.trie(trajs, grid, Hausdorff, np = 3), trajs, q, 15, statsB)
    assert(a.toSeq == b.toSeq)
    assert(statsA.nodesPopped == statsB.nodesPopped)
    assert(statsA.nodesPushed == statsB.nodesPushed)
    assert(statsA.exactDistances == statsB.exactDistances)
  }

  test("encoding a single-node trie works") {
    val trie = TestUtils.trie(Array.empty[Trajectory], grid, Hausdorff)
    assert(trie.numNodes == 1)
    assert(children(trie, 0).isEmpty)
    assert(trie.tids(0).isEmpty)
  }
}
