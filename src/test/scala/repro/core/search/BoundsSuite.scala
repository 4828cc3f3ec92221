package repro.core.search

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

import repro.TestUtils
import repro.core._
import repro.core.rptrie.RPTrie

/** Property tests for Lemmas 1–4: every lower bound must under-estimate the
  * true distance to every trajectory in the node's subtree, `LB_o` must be
  * monotone down the trie, and the incremental `CompLB` states must agree
  * with from-scratch computation.
  */
class BoundsSuite extends AnyFunSuite {

  private val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
  private val trajs = TestUtils.randomTrajs(60, maxLen = 12, seed = 61L)
  private val q = TestUtils.randomQuery(8, seed = 67L)

  /** All tids in the subtree of each node. */
  private def subtreeTids(trie: RPTrie): Map[Int, Set[Int]] = {
    val out = mutable.Map.empty[Int, Set[Int]]
    def go(v: Int): Set[Int] = {
      var s = trie.tids(v).toSet
      trie.foreachChild(v)((_, c) => s ++= go(c))
      out(v) = s
      s
    }
    go(trie.root)
    out.toMap
  }

  /** DFS visiting every label of every node's run with its extension
    * result, the previous label's, and whether the label ends the run.
    */
  private def visitAll(trie: RPTrie, ops: BoundsOps)(
      f: (Int, Extended, Option[Extended], Boolean) => Unit): Unit = {
    def go(v: Int, ext: Extended): Unit =
      trie.foreachChild(v) { (_, c) =>
        var last = ext
        for (i <- trie.runFrom(c) until trie.runUntil(c)) {
          val e = ops.extend(last.state, trie.labelAt(i))
          f(c, e, Some(last), i == trie.runUntil(c) - 1)
          last = e
        }
        go(c, last)
      }
    val rootExt = Extended(ops.rootState, 0.0, 0.0)
    go(trie.root, rootExt)
  }

  for (m <- TestUtils.measures) {
    val trie = TestUtils.trie(trajs, grid, m, np = 3,
      optimized = m.orderIndependent)
    val ops = BoundsOps.forMeasure(m, grid, q)
    val sub = subtreeTids(trie)

    test(s"${m.name}: LB_o under-estimates the distance to every subtree trajectory") {
      visitAll(trie, ops) { (v, ext, _, _) =>
        sub(v).foreach { tid =>
          val d = m.dist(q, trajs(tid).points)
          assert(ext.lbO <= d + 1e-9,
            s"${m.name}: node $v lbO=${ext.lbO} > dist=$d (tid $tid)")
        }
      }
    }

    test(s"${m.name}: LB_t (leaf bound) under-estimates stored trajectory distances") {
      visitAll(trie, ops) { (v, ext, _, runEnd) =>
        val ts = trie.tids(v)
        if (runEnd && ts.nonEmpty) {
          val dm = trie.dmax(v)
          ts.foreach { tid =>
            val lb = ops.leafTidLB(ext.refCore, dm, trajs(tid).length)
            val d = m.dist(q, trajs(tid).points)
            assert(lb <= d + 1e-9,
              s"${m.name}: node $v leaf lb=$lb > dist=$d (tid $tid)")
          }
        }
      }
    }

    test(s"${m.name}: LB_o is monotone non-decreasing down the trie (Lemma 2)") {
      visitAll(trie, ops) { (v, ext, parent, _) =>
        parent.foreach(p => assert(ext.lbO >= p.lbO - 1e-9,
          s"${m.name}: node $v lbO ${ext.lbO} < parent ${p.lbO}"))
      }
    }

    if (m.isMetric) {
      test(s"${m.name}: pivot bound LB_p under-estimates subtree distances") {
        val dqp = trie.pivots.map(p => m.dist(q, p))
        def lbP(v: Int): Double = {
          var lb = 0.0
          for (p <- trie.pivots.indices) {
            val dev = trie.maxDev(v)
            lb = math.max(lb, math.max(
              dqp(p) - trie.hrMax(v, p) - dev,
              trie.hrMin(v, p) - dev - dqp(p)))
          }
          lb
        }
        for (v <- 0 until trie.numNodes; tid <- sub(v)) {
          val d = m.dist(q, trajs(tid).points)
          assert(lbP(v) <= d + 1e-9, s"${m.name}: node $v lbP=${lbP(v)} > $d")
        }
      }
    }
  }

  // ---- Incremental-vs-direct agreement (Algorithm 1) ---------------------

  // Hausdorff and Fréchet states hold squared distances.
  test("Hausdorff CompLB state matches direct distance-matrix computation") {
    val ops = new HausdorffOps(q, grid)
    val zs = grid.refSeq(trajs(0).points)
    var st = ops.rootState
    var last: Extended = null
    for (j <- zs.indices) {
      last = ops.extend(st, zs(j))
      st = last.state
      val refPts = grid.refPoints(zs.take(j + 1))
      // r[i] = min over reference points of d(q_i, p*)
      q.indices.foreach { i =>
        val direct = refPts.map(q(i).dist).min
        assert(math.abs(math.sqrt(st.arr(i)) - direct) < 1e-9)
      }
      // c_max = max over columns of min over rows
      val cmax = refPts.map(p => q.map(_.dist(p)).min).max
      assert(math.abs(math.sqrt(st.aux) - cmax) < 1e-9)
      // refCore = D_H(q, tau*)
      assert(math.abs(last.refCore - Distances.hausdorff(q, refPts)) < 1e-9)
      // Eq. 2
      assert(math.abs(last.lbO - math.max(cmax - grid.halfDiag, 0.0)) < 1e-9)
    }
  }

  test("Frechet incremental column equals full Frechet of the reference prefix") {
    val ops = new FrechetOps(q, grid)
    val zs = grid.refSeq(trajs(1).points)
    var st = ops.rootState
    for (j <- zs.indices) {
      val ext = ops.extend(st, zs(j))
      st = ext.state
      val refPts = grid.refPoints(zs.take(j + 1))
      assert(math.abs(ext.refCore - Distances.frechet(q, refPts)) < 1e-9,
        s"column $j: ${ext.refCore} vs ${Distances.frechet(q, refPts)}")
      // every intermediate row value is D_F of the query prefix
      (1 to q.length).foreach { i =>
        assert(math.abs(math.sqrt(st.arr(i)) - Distances.frechet(q.take(i), refPts)) < 1e-9)
      }
    }
  }

  test("DTW incremental column lower-bounds DTW of query prefixes vs reference prefix") {
    val ops = new DTWOps(q, grid)
    val zs = grid.refSeq(trajs(2).points)
    var st = ops.rootState
    for (j <- zs.indices) {
      val ext = ops.extend(st, zs(j))
      st = ext.state
      val refPts = grid.refPoints(zs.take(j + 1))
      (1 to q.length).foreach { i =>
        // d' cell distance under-estimates the point distance to the center.
        assert(st.arr(i) <= Distances.dtw(q.take(i), refPts) + 1e-9)
      }
    }
  }

  test("LCSS column upper-bounds the achievable match count") {
    val eps = 1.0
    val ops = new LCSSOps(q, grid, eps)
    val t = trajs(3)
    val zs = grid.refSeq(t.points)
    var st = ops.rootState
    var ext: Extended = null
    zs.foreach { z => ext = ops.extend(st, z); st = ext.state }
    val realMatches = Distances.lcssLength(q, t.points, eps)
    assert(ext.refCore >= realMatches - 1e-9,
      s"UB ${ext.refCore} < real LCSS $realMatches")
  }

  test("EDR column lower-bounds the real edit distance") {
    val eps = 1.0
    val ops = new EDROps(q, grid, eps)
    val t = trajs(4)
    val zs = grid.refSeq(t.points)
    var st = ops.rootState
    var ext: Extended = null
    zs.foreach { z => ext = ops.extend(st, z); st = ext.state }
    val real = Distances.edr(q, t.points, eps)
    assert(ops.leafTidLB(ext.refCore, 0.0, t.length) <= real + 1e-9)
  }

  test("ERP column lower-bounds the real ERP distance") {
    val g = Point(5, 5)
    val ops = new ERPOps(q, grid, g)
    for (t <- trajs.take(20)) {
      val zs = grid.refSeq(t.points)
      var st = ops.rootState
      var ext: Extended = null
      zs.foreach { z => ext = ops.extend(st, z); st = ext.state }
      val real = Distances.erp(q, t.points, g)
      assert(ext.refCore <= real + 1e-9, s"ERP DP ${ext.refCore} > real $real")
    }
  }

  test("Hausdorff root state has zero lower bound") {
    val ops = new HausdorffOps(q, grid)
    val ext = ops.extend(ops.rootState, grid.zOf(q.head))
    assert(ext.lbO >= 0.0)
  }
}
