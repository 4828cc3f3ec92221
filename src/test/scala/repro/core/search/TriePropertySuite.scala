package repro.core.search

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtils
import repro.core._
import repro.core.rptrie.RPTrie

/** Property tests over random data: for every measure and trie variant, the
  * path-compressed trie's runs are maximal and spell every trajectory's
  * reference sequence (or set), its children and ids read back consistently,
  * and the search over it returns the brute-force top-k, also when it starts
  * from an admission bound (θ, id_θ). Fine grids make the runs long.
  */
class TriePropertySuite extends AnyFunSuite {

  // Three seeds. Each is named after one of the child encodings the trie had
  // before it kept only the sparse one, which keeps the cases' names; the
  // trie is built the same under every label, and `all-sparse` keeps seed 42.
  private val seeds = Seq("default" -> 43L, "all-dense" -> 44L, "all-sparse" -> 42L)

  /** (data, query, k, δ); tied data holds every trajectory twice. */
  private val cases = for {
    n <- Gen.choose(1, 40)
    maxLen <- Gen.choose(3, 30)
    seed <- Gen.long
    tied <- Gen.oneOf(false, true)
    qLen <- Gen.choose(1, 12)
    k <- Gen.choose(1, 12)
    delta <- Gen.oneOf(0.1, 0.25, 0.5)
  } yield {
    val data =
      if (tied) TestUtils.tiedTrajs(n, maxLen, seed) else TestUtils.randomTrajs(n, maxLen, seed = seed)
    (data, TestUtils.randomQuery(qLen, seed = seed + 1), k, delta)
  }

  /** Asserts, for every accepting node, that the runs from the root spell
    * each of its trajectories' reference sequence (or, on the greedy trie,
    * an ordering of its reference set).
    */
  private def assertPathsSpellReferences(
      trie: RPTrie, trajs: Array[Trajectory], greedy: Boolean): Unit = {
    def go(v: Int, path: Seq[Int]): Unit = {
      trie.tids(v).foreach { tid =>
        val pts = trajs(tid).points
        if (greedy) assert(path.sorted == trie.grid.refSet(pts).toSeq && path.distinct == path)
        else assert(path == trie.grid.refSeq(pts).toSeq)
      }
      trie.foreachChild(v)((_, c) => go(c, path ++ TestUtils.run(trie, c)))
    }
    go(trie.root, Vector.empty)
  }

  /** Asserts that `v`'s children come in strictly ascending first label, that
    * each label `foreachChild` yields is its child's first run label, that
    * there are `childCount(v)` of them, and that `tidFrom`/`tidUntil`/`tidAt`
    * spell `tids(v)`.
    */
  private def assertNodeReadsBack(trie: RPTrie, v: Int): Unit = {
    var prev = -1
    var n = 0
    trie.foreachChild(v) { (z, c) =>
      assert(z > prev, s"node $v: child label $z after $prev")
      assert(z == trie.labelAt(trie.runFrom(c)), s"node $v: label $z is not child $c's first")
      prev = z
      n += 1
    }
    assert(n == trie.childCount(v), s"node $v: $n children, childCount ${trie.childCount(v)}")
    assert((trie.tidFrom(v) until trie.tidUntil(v)).map(trie.tidAt) == trie.tids(v).toSeq)
  }

  private def check(prop: Prop, seed: Long): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(25).withInitialSeed(Seed(seed))
    val res = Test.check(params, prop)
    assert(res.passed, Pretty.pretty(res))
  }

  for {
    m <- TestUtils.measures
    optimized <- Seq(false, true)
    (label, seed) <- seeds
  } {
    test(s"compressed trie is exact and maximal: ${m.name} optimized=$optimized $label") {
      check(Prop.forAll(cases) { case (trajs, q, k, delta) =>
        val grid = ZGrid.fit(MBR(0, 0, 10, 10), delta)
        val trie = TestUtils.trie(trajs, grid, m, np = 3, optimized = optimized)
        for (v <- 0 until trie.numNodes) {
          if (v > 0) {
            assert(trie.runUntil(v) > trie.runFrom(v), s"node $v has an empty run")
            assert(trie.tids(v).nonEmpty || trie.childCount(v) >= 2, s"node $v is not maximal")
          }
          assertNodeReadsBack(trie, v)
        }
        assertPathsSpellReferences(trie, trajs, optimized && m.orderIndependent)
        TestUtils.assertTopKEqual(LocalSearch.topK(trie, trajs, q, k),
          TestUtils.bruteTopK(trajs, q, k, m), trajs, q, m)
        true
      }, seed)
    }
  }

  /** `cases` with an admission bound: the (distance, id) pair at `pick`
    * (modulo the data size) of the brute-force order, its id moved by `off`
    * (±1 steps across a tied pair's ids; the extremes pass above or below
    * every id at that distance).
    */
  private val boundCases = for {
    c <- cases
    pick <- Gen.choose(0, 1000)
    off <- Gen.oneOf(-1L, 0L, 1L, Long.MinValue, Long.MaxValue)
  } yield (c, pick, off)

  for (m <- TestUtils.measures; optimized <- Seq(false, true)) {
    test(s"search from an admission bound returns the brute-force pairs up to it: ${m.name} optimized=$optimized") {
      check(Prop.forAll(boundCases) { case ((trajs, q, k, delta), pick, off) =>
        val grid = ZGrid.fit(MBR(0, 0, 10, 10), delta)
        val trie = TestUtils.trie(trajs, grid, m, np = 3, optimized = optimized)
        val all = TestUtils.bruteTopK(trajs, q, trajs.length, m)
        val (id, d) = all(pick % all.length)
        val thetaId = if (off == Long.MinValue || off == Long.MaxValue) off else id + off
        // A prefix of the brute-force order: when the bound is at or above
        // the k-th pair, its first k are the brute-force top-k.
        val upTo = all.filter { case (i, di) => TopK.order.lteq((di, i), (d, thetaId)) }
        val got = LocalSearch.topK(trie, trajs, q, k, new LocalSearch.Stats, (d, thetaId))
        TestUtils.assertTopKEqual(got, upTo.take(k), trajs, q, m)
        true
      }, 45L)
    }
  }
}
