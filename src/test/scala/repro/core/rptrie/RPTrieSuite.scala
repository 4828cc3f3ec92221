package repro.core.rptrie

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

import repro.TestUtils
import repro.core._

/** RP-Trie structure tests: insertion reachability, the greedy hitting-set
  * optimization (Example 3 / Table X / Fig. 10), HR/D_max payload invariants.
  */
class RPTrieSuite extends AnyFunSuite {

  private val grid8 = TestUtils.paperGrid

  /** Walk a z-sequence from the root along whole runs; None if it leaves
    * the trie or ends inside a run.
    */
  private def walk(trie: RPTrie, zs: Array[Int]): Option[Int] = {
    var cur = trie.root
    var i = 0
    while (i < zs.length) {
      var next = -1
      trie.foreachChild(cur)((cz, c) => if (cz == zs(i)) next = c)
      if (next == -1) return None
      val run = TestUtils.run(trie, next)
      if (zs.slice(i, i + run.length).toSeq != run) return None
      i += run.length
      cur = next
    }
    Some(cur)
  }

  private def allNodes(trie: RPTrie): Seq[Int] = 0 until trie.numNodes

  /** DFS paths: node -> z-path from root. */
  private def paths(trie: RPTrie): Map[Int, List[Int]] = {
    val out = mutable.Map(trie.root -> List.empty[Int])
    def go(v: Int, path: List[Int]): Unit =
      trie.foreachChild(v) { (_, c) =>
        out(c) = path ++ TestUtils.run(trie, c)
        go(c, out(c))
      }
    go(trie.root, Nil)
    out.toMap
  }

  // ---- Plain (order-preserving) build -----------------------------------

  private val rts = TestUtils.randomTrajs(60, maxLen = 15, seed = 11L)
  private val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)

  test("plain trie: every trajectory's reference sequence ends at a node holding its tid") {
    val trie = TestUtils.trie(rts, grid, Frechet, optimized = false)
    rts.zipWithIndex.foreach { case (t, i) =>
      val node = walk(trie, grid.refSeq(t.points))
      assert(node.isDefined, s"path missing for trajectory $i")
      assert(trie.tids(node.get).contains(i), s"tid $i missing at its end node")
    }
  }

  test("plain trie: every tid appears exactly once") {
    val trie = TestUtils.trie(rts, grid, Frechet, optimized = false)
    val seen = allNodes(trie).flatMap(trie.tids)
    assert(seen.sorted == rts.indices.toList)
  }

  test("plain trie: node count equals distinct prefixes plus root") {
    val trie = TestUtils.trie(rts, grid, Frechet, optimized = false)
    val prefixes = mutable.Set.empty[List[Int]]
    rts.foreach { t =>
      val zs = grid.refSeq(t.points).toList
      (1 to zs.length).foreach(i => prefixes += zs.take(i))
    }
    assert(trie.numLabels + 1 == prefixes.size + 1) // per-label nodes
  }

  test("prefix trajectories terminate at internal accepting nodes ($ behaviour)") {
    val a = Trajectory(0, Array(Point(0.5, 0.5), Point(1.5, 0.5)))
    val b = Trajectory(1, Array(Point(0.5, 0.5), Point(1.5, 0.5), Point(2.5, 0.5)))
    val trie = TestUtils.trie(Array(a, b), grid8, Frechet, optimized = false)
    val na = walk(trie, grid8.refSeq(a.points)).get
    assert(trie.tids(na).contains(0))
    assert(trie.childCount(na) == 1) // continues to b's last cell
  }

  // ---- Greedy hitting-set optimized build (Example 3 / Table X) ----------

  /** Build trajectories whose reference sets equal Table X's Z_1..Z_8 on a
    * 4×4 grid (cells named by their z-values 1..6 as in the appendix).
    */
  private def tableXTrajs: (Array[Trajectory], ZGrid) = {
    val g = ZGrid(0, 0, 4, 1.0)
    val sets = Seq(
      Seq(1, 3), Seq(1, 3, 5), Seq(2, 3), Seq(2, 3, 5),
      Seq(3, 5), Seq(1, 4), Seq(2, 4), Seq(5, 6))
    val trajs = sets.zipWithIndex.map { case (zs, i) =>
      Trajectory(i.toLong, zs.map(z => g.refPoint(z)).toArray)
    }.toArray
    (trajs, g)
  }

  test("Example 3: greedy first level is {0011, 0100, 0101}") {
    val (trajs, g) = tableXTrajs
    val trie = TestUtils.trie(trajs, g, Hausdorff, optimized = true)
    val labels = mutable.ArrayBuffer.empty[Int]
    trie.foreachChild(trie.root)((z, _) => labels += z)
    assert(labels.sorted.toList == List(3, 4, 5))
  }

  test("Example 3: subtree trajectory assignment follows the greedy claims") {
    val (trajs, g) = tableXTrajs
    val trie = TestUtils.trie(trajs, g, Hausdorff, optimized = true)
    def subTids(z: Int): Set[Int] = {
      var handle = -1
      trie.foreachChild(trie.root)((cz, c) => if (cz == z) handle = c)
      val out = mutable.Set.empty[Int]
      def go(v: Int): Unit = { out ++= trie.tids(v); trie.foreachChild(v)((_, c) => go(c)) }
      go(handle)
      out.toSet
    }
    assert(subTids(3) == Set(0, 1, 2, 3, 4)) // Z^z1 = {Z1..Z5}
    assert(subTids(4) == Set(5, 6))          // Z^z2 = {Z6, Z7}
    assert(subTids(5) == Set(7))             // Z8
  }

  test("Example 3: optimized trie has 12 nodes (Fig. 10)") {
    val (trajs, g) = tableXTrajs
    val trie = TestUtils.trie(trajs, g, Hausdorff, optimized = true)
    assert(trie.numLabels + 1 == 12) // per-label nodes
    assert(trie.numNodes == 11)      // only the chain 0101 → 0110 merges
  }

  test("z-rearrangement merges reversed trajectories (Fig. 3 effect)") {
    val a = Trajectory(0, Array(Point(0.5, 0.5), Point(1.5, 1.5)))
    val b = Trajectory(1, Array(Point(1.5, 1.5), Point(0.5, 0.5)))
    val plain = TestUtils.trie(Array(a, b), grid8, Hausdorff, optimized = false)
    val opt = TestUtils.trie(Array(a, b), grid8, Hausdorff, optimized = true)
    assert(plain.numLabels + 1 == 5) // root + two 2-node chains
    assert(opt.numLabels + 1 == 3)   // root + shared chain of 2
    assert(plain.numNodes == 3 && opt.numNodes == 2) // one run per chain
  }

  test("optimized trie never has more nodes than the plain trie (random data)") {
    for (seed <- 1 to 5) {
      val ts = TestUtils.randomTrajs(80, maxLen = 12, seed = seed)
      val plain = TestUtils.trie(ts, grid, Hausdorff, optimized = false)
      val opt = TestUtils.trie(ts, grid, Hausdorff, optimized = true)
      assert(opt.numLabels <= plain.numLabels, s"seed $seed: ${opt.numLabels} > ${plain.numLabels}")
    }
  }

  test("optimized build preserves all tids") {
    val ts = TestUtils.randomTrajs(80, maxLen = 12, seed = 23L)
    val trie = TestUtils.trie(ts, grid, Hausdorff, optimized = true)
    assert(allNodes(trie).flatMap(trie.tids).sorted == ts.indices.toList)
  }

  test("optimized build is only applied to order-independent measures") {
    val ts = TestUtils.randomTrajs(40, maxLen = 10, seed = 29L)
    val f = TestUtils.trie(ts, grid, Frechet, optimized = true)
    // Frechet is order-sensitive: structure must match the plain build.
    val fPlain = TestUtils.trie(ts, grid, Frechet, optimized = false)
    assert(f.numNodes == fPlain.numNodes)
  }

  test("greedy determinism: identical builds for identical input") {
    val ts = TestUtils.randomTrajs(50, maxLen = 10, seed = 31L)
    val t1 = TestUtils.trie(ts, grid, Hausdorff, optimized = true)
    val t2 = TestUtils.trie(ts, grid, Hausdorff, optimized = true)
    assert(t1.numNodes == t2.numNodes)
    assert(paths(t1).values.toSet == paths(t2).values.toSet)
  }

  // ---- Payload invariants ------------------------------------------------

  private def builtWithPivots = {
    val ts = TestUtils.randomTrajs(60, maxLen = 12, seed = 37L)
    (ts, TestUtils.trie(ts, grid, Hausdorff, np = 3, optimized = true))
  }

  test("HR ranges are consistent (min <= max) wherever the subtree accepts") {
    val (_, trie) = builtWithPivots
    for (v <- allNodes(trie); p <- trie.pivots.indices)
      if (trie.hrMin(v, p) != Double.MaxValue)
        assert(trie.hrMin(v, p) <= trie.hrMax(v, p))
  }

  test("HR of an accepting-only leaf equals the reference-pivot distance") {
    val (_, trie) = builtWithPivots
    val ps = paths(trie)
    for (v <- allNodes(trie) if trie.childCount(v) == 0) {
      val refPts = trie.grid.refPoints(ps(v).toArray)
      for (p <- trie.pivots.indices) {
        val d = Hausdorff.dist(refPts, trie.pivots(p))
        assert(math.abs(trie.hrMin(v, p) - d) < 1e-9)
        assert(math.abs(trie.hrMax(v, p) - d) < 1e-9)
      }
    }
  }

  test("parent HR ranges contain child HR ranges") {
    val (_, trie) = builtWithPivots
    for (v <- allNodes(trie)) {
      trie.foreachChild(v) { (_, c) =>
        for (p <- trie.pivots.indices) if (trie.hrMin(c, p) != Double.MaxValue) {
          assert(trie.hrMin(v, p) <= trie.hrMin(c, p) + 1e-12)
          assert(trie.hrMax(v, p) >= trie.hrMax(c, p) - 1e-12)
        }
      }
    }
  }

  test("dmax bounds the distance from each stored trajectory to its reference trajectory") {
    val (ts, trie) = builtWithPivots
    val ps = paths(trie)
    for (v <- allNodes(trie) if trie.tids(v).nonEmpty) {
      val refPts = trie.grid.refPoints(ps(v).toArray)
      trie.tids(v).foreach { tid =>
        assert(Hausdorff.dist(ts(tid).points, refPts) <= trie.dmax(v) + 1e-9)
      }
    }
  }

  test("dmax of a Hausdorff trie never exceeds the half-diagonal") {
    val (_, trie) = builtWithPivots
    for (v <- allNodes(trie) if trie.tids(v).nonEmpty)
      assert(trie.dmax(v) <= trie.grid.halfDiag + 1e-9)
  }

  test("maxDev dominates own dmax and children's maxDev") {
    val (_, trie) = builtWithPivots
    for (v <- allNodes(trie)) {
      assert(trie.maxDev(v) >= trie.dmax(v) - 1e-12)
      trie.foreachChild(v)((_, c) => assert(trie.maxDev(v) >= trie.maxDev(c) - 1e-12))
    }
  }

  test("pivot selection returns np pivots, deterministically") {
    val ts = TestUtils.randomTrajs(50, maxLen = 10, seed = 41L)
    val p1 = RPTrie.selectPivots(ts, Hausdorff, 5, 10, 42L)
    val p2 = RPTrie.selectPivots(ts, Hausdorff, 5, 10, 42L)
    assert(p1.length == 5)
    assert(p1.zip(p2).forall { case (a, b) => a.sameElements(b) })
  }

  test("pivot selection prefers spread-out groups") {
    // Two tight clusters far apart: a good pivot set spans both clusters.
    val near = TestUtils.randomTrajs(20, maxLen = 5, span = 0.1, seed = 43L)
    val far = TestUtils.randomTrajs(20, maxLen = 5, span = 0.1, seed = 44L)
      .map(t => Trajectory(t.id + 100, t.points.map(p => Point(p.x + 50, p.y + 50))))
    val all = near ++ far
    val pivots = RPTrie.selectPivots(all, Hausdorff, 2, 30, 42L)
    val sides = pivots.map(_.head.x > 25)
    assert(sides.toSet.size == 2, "pivots should span both clusters")
  }

  test("no pivots selected for non-metric measures") {
    val ts = TestUtils.randomTrajs(20, maxLen = 8, seed = 47L)
    assert(RPTrie.selectPivots(ts, DTW, 5, 10, 42L).isEmpty)
    // The build drops given pivots too: a non-metric search has no LB_p.
    val metricPivots = RPTrie.selectPivots(ts, Hausdorff, 5, 10, 42L)
    assert(metricPivots.nonEmpty)
    assert(RPTrie.build(ts, grid, DTW, metricPivots).pivots.isEmpty)
  }

  test("empty pivot request yields empty pivots") {
    val ts = TestUtils.randomTrajs(20, maxLen = 8, seed = 53L)
    assert(TestUtils.trie(ts, grid, Hausdorff, np = 0).pivots.isEmpty)
  }

  test("estimatedSizeBytes is positive") {
    val (_, trie) = builtWithPivots
    assert(trie.estimatedSizeBytes > 0)
  }
}
