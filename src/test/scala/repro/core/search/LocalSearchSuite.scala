package repro.core.search

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtils
import repro.core._

/** Exactness of the best-first local search (Algorithm 2): for every measure,
  * trie variant (plain/optimized), grid resolution, and k, the result must
  * match brute force.
  */
class LocalSearchSuite extends AnyFunSuite {

  private val trajs = TestUtils.randomTrajs(150, maxLen = 14, seed = 71L)
  private val queries = Seq(
    TestUtils.randomQuery(6, seed = 73L),
    TestUtils.randomQuery(12, seed = 79L),
  )

  // Three query sets. Each is named after one of the child encodings the trie
  // had before it kept only the sparse one, which keeps the cases' names; the
  // trie is the same under every label, and `all-sparse` runs `queries`.
  private def queryPair(seed: Long) =
    Seq(TestUtils.randomQuery(6, seed = seed), TestUtils.randomQuery(12, seed = seed + 6))
  private val querySets = Seq(
    "succinct=false" -> queryPair(173L),
    "succinct=true" -> queryPair(273L),
    "all-sparse" -> queries,
  )

  for {
    m <- TestUtils.measures
    optimized <- Seq(false, true)
    (label, qs) <- querySets
    k <- Seq(1, 5, 20)
  } {
    test(s"topK matches brute force: ${m.name} optimized=$optimized $label k=$k") {
      val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
      val trie = TestUtils.trie(trajs, grid, m, np = 3, optimized = optimized)
      qs.foreach { q =>
        val got = LocalSearch.topK(trie, trajs, q, k)
        val expected = TestUtils.bruteTopK(trajs, q, k, m)
        TestUtils.assertTopKEqual(got, expected, trajs, q, m)
      }
    }
  }

  // Every trajectory twice, the larger id first: a search that cuts a tie by
  // visit order instead of by id returns the wrong copy. Each label queries
  // with one stored trajectory and one random walk.
  private val tied = TestUtils.tiedTrajs(60, seed = 401L)
  private val tiedQuerySets = Seq(
    "succinct=false" -> Seq(tied(16).points, TestUtils.randomQuery(8, seed = 419L)),
    "succinct=true" -> Seq(tied(26).points, TestUtils.randomQuery(8, seed = 429L)),
    "all-sparse" -> Seq(tied(6).points, TestUtils.randomQuery(8, seed = 409L)),
  )

  for {
    m <- TestUtils.measures
    optimized <- Seq(false, true)
    (label, qs) <- tiedQuerySets
  } {
    test(s"topK breaks distance ties by id: ${m.name} optimized=$optimized $label") {
      val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
      val trie = TestUtils.trie(tied, grid, m, np = 3, optimized = optimized)
      for (q <- qs; k <- Seq(1, 5, 11)) {
        TestUtils.assertTopKEqual(LocalSearch.topK(trie, tied, q, k),
          TestUtils.bruteTopK(tied, q, k, m), tied, q, m)
      }
    }
  }

  test("k larger than dataset returns all trajectories") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    val small = trajs.take(7)
    val trie = TestUtils.trie(small, grid, Hausdorff)
    val got = LocalSearch.topK(trie, small, queries.head, 100)
    assert(got.length == 7)
  }

  test("k = 0 returns empty") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    val trie = TestUtils.trie(trajs, grid, Hausdorff)
    assert(LocalSearch.topK(trie, trajs, queries.head, 0).isEmpty)
  }

  test("results are sorted by ascending distance") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    val trie = TestUtils.trie(trajs, grid, Frechet)
    val got = LocalSearch.topK(trie, trajs, queries.head, 25)
    assert(got.map(_._2).toSeq == got.map(_._2).sorted.toSeq)
  }

  test("finer grids still return exact results (delta sweep)") {
    for (delta <- Seq(0.25, 0.5, 2.0, 5.0)) {
      val grid = ZGrid.fit(MBR(0, 0, 10, 10), delta)
      val trie = TestUtils.trie(trajs, grid, Hausdorff, np = 3)
      val got = LocalSearch.topK(trie, trajs, queries.head, 10)
      val expected = TestUtils.bruteTopK(trajs, queries.head, 10, Hausdorff)
      TestUtils.assertTopKEqual(got, expected, trajs, queries.head, Hausdorff)
    }
  }

  test("pivot counts sweep preserves exactness (N_p in 0,1,5,9)") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    for (np <- Seq(0, 1, 5, 9)) {
      val trie = TestUtils.trie(trajs, grid, Hausdorff, np = np)
      val got = LocalSearch.topK(trie, trajs, queries.head, 10)
      val expected = TestUtils.bruteTopK(trajs, queries.head, 10, Hausdorff)
      TestUtils.assertTopKEqual(got, expected, trajs, queries.head, Hausdorff)
    }
  }

  test("pruning actually happens: fewer exact distances than trajectories (Hausdorff)") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 0.5)
    val big = TestUtils.randomTrajs(800, maxLen = 14, seed = 83L)
    val trie = TestUtils.trie(big, grid, Hausdorff, np = 5)
    val stats = new LocalSearch.Stats
    LocalSearch.topK(trie, big, queries.head, 5, stats)
    assert(stats.exactDistances < big.length,
      s"no pruning: ${stats.exactDistances} exact distances for ${big.length} trajectories")
  }

  test("best-first early termination visits fewer nodes than the whole trie") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 0.5)
    val big = TestUtils.randomTrajs(800, maxLen = 14, seed = 89L)
    val trie = TestUtils.trie(big, grid, Frechet, np = 5)
    val stats = new LocalSearch.Stats
    LocalSearch.topK(trie, big, queries.head, 5, stats)
    assert(stats.nodesPopped < trie.numNodes)
  }

  test("a one-trajectory trie pops the root and its run end, extending each label once") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 0.25)
    val one = trajs.take(1)
    for (m <- TestUtils.measures; optimized <- Seq(false, true)) {
      val trie = TestUtils.trie(one, grid, m, optimized = optimized)
      assert(trie.numNodes == 2 && trie.numLabels > 1)
      val stats = new LocalSearch.Stats
      LocalSearch.topK(trie, one, queries.head, 1, stats)
      assert(stats.nodesPopped == 2, m.name)
      assert(stats.labelsExtended == trie.numLabels, m.name)
      assert(stats.exactDistances == 1, m.name)
    }
  }

  test("cascade and abandon counters agree with the heap") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    for (m <- TestUtils.measures; k <- Seq(1, 5, 20, trajs.length)) {
      val trie = TestUtils.trie(trajs, grid, m, np = 3)
      for (q <- queries) {
        val s = new LocalSearch.Stats
        LocalSearch.topK(trie, trajs, q, k, s)
        val label = s"${m.name} k=$k"
        val cutOrAbandoned = s.cutByEndpoint + s.cutByMbr + s.abandoned
        assert(s.exactBeforeFull <= math.min(k, trajs.length), label)
        assert(s.abandoned <= s.exactDistances - s.exactBeforeFull, label)
        // Every evaluation before the heap is full enters it, so a cut or an
        // abandon comes only after k of them.
        assert(cutOrAbandoned == 0 || s.exactBeforeFull == k, label)
        if (k == trajs.length) {
          assert(cutOrAbandoned == 0, label)
          assert(s.exactBeforeFull == s.exactDistances, label)
        }
        if (m != Frechet) assert(s.cutByEndpoint == 0, label)
        if (!Seq(Hausdorff, Frechet, DTW).contains(m)) assert(s.cutByMbr == 0, label)
      }
    }
    val big = TestUtils.randomTrajs(800, maxLen = 14, seed = 89L)
    val trie = TestUtils.trie(big, ZGrid.fit(MBR(0, 0, 10, 10), 0.5), Frechet, np = 5)
    val s = new LocalSearch.Stats
    LocalSearch.topK(trie, big, queries.head, 5, s)
    assert(s.cutByEndpoint + s.cutByMbr > 0, "Frechet: no cascade cut")
  }

  test("duplicate trajectories share a leaf and are all returned") {
    val base = TestUtils.randomTrajs(5, maxLen = 8, seed = 97L)
    val dup = base ++ base.map(t => Trajectory(t.id + 5, t.points))
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    val trie = TestUtils.trie(dup, grid, Hausdorff)
    val got = LocalSearch.topK(trie, dup, base(0).points, 2)
    assert(got.length == 2)
    assert(got.forall(_._2 <= 1e-9)) // the trajectory and its duplicate
  }

  test("empty trajectory set returns empty result") {
    val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
    assert(LocalSearch.topK(
      TestUtils.trie(Array.empty[Trajectory], grid, Hausdorff),
      Array.empty, queries.head, 3).isEmpty)
  }
}
