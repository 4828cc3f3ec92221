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
  * partition, and the answers must not change. The twelve build cases also
  * pin the layout itself: an FNV-1a fingerprint of every array (runs, child
  * ranges, tids, and the bits of `D_max`, maxDev and HR) must equal the value
  * recorded for the case, over the suite's data at δ = 1 and at δ = 0.25,
  * where runs are long.
  */
class SuccinctSuite extends AnyFunSuite {

  private val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
  private val fineGrid = ZGrid.fit(MBR(0, 0, 10, 10), 0.25)
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

  /** FNV-1a (64-bit) over the bytes of every value the layout stores. */
  private def fingerprint(t: RPTrie): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit =
      for (b <- 0 until 64 by 8) h = (h ^ ((x >>> b) & 0xff)) * 0x100000001b3L
    def mixD(d: Double): Unit = mix(java.lang.Double.doubleToRawLongBits(d))
    mix(t.numNodes); mix(t.numLabels)
    for (v <- 0 until t.numNodes) {
      mix(t.runFrom(v)); mix(t.runUntil(v))
      (t.runFrom(v) until t.runUntil(v)).foreach(i => mix(t.labelAt(i)))
      mix(t.childCount(v))
      t.foreachChild(v)((z, c) => { mix(z); mix(c) })
      mix(t.tidFrom(v)); mix(t.tidUntil(v))
      (t.tidFrom(v) until t.tidUntil(v)).foreach(i => mix(t.tidAt(i)))
      mixD(t.dmax(v)); mixD(t.maxDev(v))
      t.pivots.indices.foreach { p => mixD(t.hrMin(v, p)); mixD(t.hrMax(v, p)) }
    }
    h
  }

  /** Fingerprints of each case's trie at δ = 1 and δ = 0.25. */
  private val layouts: Map[(String, Boolean), (Long, Long)] = Map(
    ("Hausdorff", false) -> (0x0e53df652fb12da7L, 0x6b19ec0d0eaa1995L),
    ("Hausdorff", true) -> (0xc8efad1bdee50a0eL, 0x4eca678b1bafb10dL),
    ("Frechet", false) -> (0x66172ec3a3b8da32L, 0xea9474f14d98325eL),
    ("Frechet", true) -> (0x66172ec3a3b8da32L, 0xea9474f14d98325eL),
    ("DTW", false) -> (0x9b9a8b811b477c71L, 0x3fc4f4720441a0aeL),
    ("DTW", true) -> (0x9b9a8b811b477c71L, 0x3fc4f4720441a0aeL),
    ("ERP", false) -> (0x45efdf9d0cfb8a36L, 0xd98da3c52c0dac37L),
    ("ERP", true) -> (0x45efdf9d0cfb8a36L, 0xd98da3c52c0dac37L),
    ("LCSS", false) -> (0x03b9dc7f6706d946L, 0x11edc0b580904bfeL),
    ("LCSS", true) -> (0x03b9dc7f6706d946L, 0x11edc0b580904bfeL),
    ("EDR", false) -> (0x1934d72dcf3538a8L, 0x6a3e0ee976cec013L),
    ("EDR", true) -> (0x1934d72dcf3538a8L, 0x6a3e0ee976cec013L),
  )

  for (m <- measures; opt <- Seq(false, true)) {
    test(s"default and all-sparse encodings traverse identically (${m.name}, optimized=$opt)") {
      val a = TestUtils.trie(trajs, grid, m, np = 3, optimized = opt)
      assertEquivalent(a, TestUtils.trie(trajs, grid, m, np = 3, optimized = opt))
      val got = (fingerprint(a), fingerprint(TestUtils.trie(trajs, fineGrid, m, np = 3, optimized = opt)))
      assert(layouts.get((m.name, opt)).contains(got), s"layout fingerprints of (${m.name}, $opt): $got")
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
