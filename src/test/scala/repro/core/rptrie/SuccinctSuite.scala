package repro.core.rptrie

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

import repro.TestUtils
import repro.core._

/** Succinct encoding tests: the default (dense upper levels) and all-sparse
  * encodings of one build traverse identically, and the dense/sparse level
  * split follows `denseNodeMax` and the grid alphabet.
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
      val default = RPTrie.build(trajs, grid, m, np = 3, optimized = opt)
      val sparse = RPTrie.build(trajs, grid, m, np = 3, optimized = opt, denseNodeMax = 0)
      assert(default.denseCount > 0)
      assertEquivalent(default, sparse)
    }
  }

  test("dense/sparse split: tiny denseNodeMax pushes everything sparse") {
    val allSparse = RPTrie.build(trajs, grid, Hausdorff, np = 2, denseNodeMax = 0)
    assert(allSparse.denseCount == 0)
    assertEquivalent(RPTrie.build(trajs, grid, Hausdorff, np = 2), allSparse)
  }

  test("dense/sparse split: huge denseNodeMax makes everything dense") {
    val allDense = RPTrie.build(trajs, grid, Hausdorff, np = 2, denseNodeMax = Int.MaxValue)
    assert(allDense.denseCount == allDense.numNodes)
    assertEquivalent(RPTrie.build(trajs, grid, Hausdorff, np = 2), allDense)
  }

  test("large alphabets (cells > denseCellMax) fall back to all-sparse") {
    val fineGrid = ZGrid.fit(MBR(0, 0, 10, 10), 0.05) // 256x256 = 65536 cells
    assert(fineGrid.numCells > RPTrie.DenseCellMax)
    val trie = RPTrie.build(trajs, fineGrid, Hausdorff, np = 2)
    assert(trie.denseCount == 0)
    assertEquivalent(RPTrie.build(trajs, fineGrid, Hausdorff, np = 2, denseNodeMax = 0), trie)
  }

  test("default split has a dense upper part on small alphabets") {
    val trie = RPTrie.build(trajs, grid, Hausdorff, np = 2)
    assert(trie.denseCount > 0)
    assert(trie.denseCount <= trie.numNodes)
  }

  test("a split inside the trie traverses like the all-sparse encoding") {
    val whole = RPTrie.build(trajs, grid, Frechet, np = 2)
    val mixed = RPTrie.build(trajs, grid, Frechet, np = 2, denseNodeMax = whole.numNodes / 2)
    assert(mixed.denseCount > 0 && mixed.denseCount < mixed.numNodes)
    assertEquivalent(mixed, RPTrie.build(trajs, grid, Frechet, np = 2, denseNodeMax = 0))
  }

  test("search results are identical on default and all-sparse encodings") {
    val q = TestUtils.randomQuery(9, seed = 137L)
    val default = RPTrie.build(trajs, grid, Hausdorff, np = 3)
    val sparse = RPTrie.build(trajs, grid, Hausdorff, np = 3, denseNodeMax = 0)
    val statsA = new repro.core.search.LocalSearch.Stats
    val statsB = new repro.core.search.LocalSearch.Stats
    val a = repro.core.search.LocalSearch.topK(default, trajs, q, 15, statsA)
    val b = repro.core.search.LocalSearch.topK(sparse, trajs, q, 15, statsB)
    assert(a.toSeq == b.toSeq)
    assert(statsA.nodesPopped == statsB.nodesPopped)
    assert(statsA.nodesPushed == statsB.nodesPushed)
    assert(statsA.exactDistances == statsB.exactDistances)
  }

  test("encoding a single-node trie works") {
    val trie = RPTrie.build(Array.empty[Trajectory], grid, Hausdorff)
    assert(trie.numNodes == 1)
    assert(children(trie, 0).isEmpty)
    assert(trie.tids(0).isEmpty)
  }
}
