package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtils

/** Distance-function unit tests, anchored on the paper's running example
  * (Example 1 / Table II) and cross-checked against naive recursive
  * reference implementations and metric axioms.
  */
class DistancesSuite extends AnyFunSuite {

  private val trajs = TestUtils.paperTrajs
  private val q = TestUtils.paperQuery

  private def t(i: Int) = trajs(i - 1).points

  // --- Example 1: Hausdorff distances of the running example -------------
  test("Example 1: D_H(tau_q, tau_1) = 2.83") {
    assert(math.abs(Distances.hausdorff(q, t(1)) - 2.83) < 0.01)
  }
  test("Example 1: D_H(tau_q, tau_2) = 6.08") {
    assert(math.abs(Distances.hausdorff(q, t(2)) - 6.08) < 0.01)
  }
  test("Example 1: D_H(tau_q, tau_3) = 6.71") {
    assert(math.abs(Distances.hausdorff(q, t(3)) - 6.71) < 0.01)
  }
  test("Example 1: D_H(tau_q, tau_4) = 3.16") {
    assert(math.abs(Distances.hausdorff(q, t(4)) - 3.16) < 0.01)
  }
  test("Example 1: D_H(tau_q, tau_5) = 6.08") {
    assert(math.abs(Distances.hausdorff(q, t(5)) - 6.08) < 0.01)
  }
  test("Example 1: top-2 under Hausdorff is {tau_1, tau_4}") {
    val top2 = TestUtils.bruteTopK(trajs, q, 2, Hausdorff).map(_._1).toSet
    assert(top2 == Set(1L, 4L))
  }

  // --- Reference (recursive) implementations -----------------------------
  private def frechetRec(a: Array[Point], b: Array[Point]): Double = {
    val memo = Array.fill(a.length + 1, b.length + 1)(-1.0)
    def go(i: Int, j: Int): Double = {
      if (memo(i)(j) >= 0) return memo(i)(j)
      val d = a(i - 1).dist(b(j - 1))
      val r =
        if (i == 1 && j == 1) d
        else if (i == 1) math.max(go(1, j - 1), d)
        else if (j == 1) math.max(go(i - 1, 1), d)
        else math.max(math.min(math.min(go(i - 1, j - 1), go(i - 1, j)), go(i, j - 1)), d)
      memo(i)(j) = r
      r
    }
    go(a.length, b.length)
  }

  private def dtwRec(a: Array[Point], b: Array[Point]): Double = {
    val memo = Array.fill(a.length + 1, b.length + 1)(-1.0)
    def go(i: Int, j: Int): Double = {
      if (memo(i)(j) >= 0) return memo(i)(j)
      val d = a(i - 1).dist(b(j - 1))
      val r =
        if (i == 1 && j == 1) d
        else if (i == 1) go(1, j - 1) + d
        else if (j == 1) go(i - 1, 1) + d
        else d + math.min(math.min(go(i - 1, j - 1), go(i - 1, j)), go(i, j - 1))
      memo(i)(j) = r
      r
    }
    go(a.length, b.length)
  }

  private val smallTrajs = TestUtils.randomTrajs(30, maxLen = 12, seed = 3L)

  test("frechet matches recursive reference on 30x30 random pairs") {
    for (a <- smallTrajs; b <- smallTrajs)
      assert(Distances.frechet(a.points, b.points) == frechetRec(a.points, b.points))
  }

  test("dtw matches recursive reference on 30x30 random pairs") {
    for (a <- smallTrajs; b <- smallTrajs)
      assert(Distances.dtw(a.points, b.points) == dtwRec(a.points, b.points))
  }

  // --- Axioms ------------------------------------------------------------
  private val measures: Seq[Measure] = Seq(
    Hausdorff, Frechet, DTW, ERP(Point(5, 5)), LCSS(0.8), EDR(0.8))

  for (m <- measures) {
    test(s"${m.name}: symmetry on random pairs") {
      for (a <- smallTrajs.take(12); b <- smallTrajs.take(12))
        assert(math.abs(m.dist(a, b) - m.dist(b, a)) < 1e-9, s"$m not symmetric")
    }
    test(s"${m.name}: self distance is minimal (identity)") {
      for (a <- smallTrajs.take(12)) {
        val d = m.dist(a, a)
        assert(d <= 1e-9, s"${m.name} self-distance $d")
      }
    }
    test(s"${m.name}: non-negative") {
      for (a <- smallTrajs.take(8); b <- smallTrajs.take(8))
        assert(m.dist(a, b) >= 0.0)
    }
  }

  for (m <- measures.filter(_.isMetric)) {
    test(s"${m.name}: triangle inequality on random triples") {
      val ts = smallTrajs.take(10)
      for (a <- ts; b <- ts; c <- ts) {
        val ab = m.dist(a, b); val bc = m.dist(b, c); val ac = m.dist(a, c)
        assert(ac <= ab + bc + 1e-9, s"${m.name} triangle violated: $ac > $ab + $bc")
      }
    }
  }

  test("Frechet upper-bounds Hausdorff") {
    for (a <- smallTrajs; b <- smallTrajs)
      assert(Distances.frechet(a.points, b.points) >=
        Distances.hausdorff(a.points, b.points) - 1e-9)
  }

  test("DTW upper-bounds Frechet") {
    for (a <- smallTrajs.take(15); b <- smallTrajs.take(15))
      assert(Distances.dtw(a.points, b.points) >=
        Distances.frechet(a.points, b.points) - 1e-9)
  }

  // --- Hand-computed small cases -----------------------------------------
  private val p0 = Array(Point(0, 0))
  private val p1 = Array(Point(3, 4))

  test("singleton trajectories: all point-based measures give point distance") {
    assert(Distances.hausdorff(p0, p1) == 5.0)
    assert(Distances.frechet(p0, p1) == 5.0)
    assert(Distances.dtw(p0, p1) == 5.0)
  }

  test("ERP of singleton vs singleton with origin gap") {
    // Options: substitute (5) or delete both (|p0-g| + |p1-g| = 0 + 5)
    assert(math.abs(Distances.erp(p0, p1, Point(0, 0)) - 5.0) < 1e-9)
  }

  test("ERP against empty-like gap accumulates gap costs") {
    val a = Array(Point(1, 0), Point(2, 0))
    val b = Array(Point(1, 0))
    // best: match (1,0)-(1,0) = 0 and gap (2,0) -> d((2,0),g)=2 with g=(0,0)
    assert(math.abs(Distances.erp(a, b, Point(0, 0)) - 2.0) < 1e-9)
  }

  test("LCSS counts eps-matches") {
    val a = Array(Point(0, 0), Point(1, 0), Point(2, 0))
    val b = Array(Point(0, 0.05), Point(5, 5), Point(2, 0.05))
    assert(Distances.lcssLength(a, b, 0.1) == 2)
    assert(math.abs(Distances.lcssDist(a, b, 0.1) - (1.0 - 2.0 / 3.0)) < 1e-9)
  }

  test("LCSS distance is 0 for identical trajectories and 1 for far ones") {
    val a = Array(Point(0, 0), Point(1, 0))
    val far = Array(Point(100, 100), Point(101, 100))
    assert(Distances.lcssDist(a, a, 0.1) == 0.0)
    assert(Distances.lcssDist(a, far, 0.1) == 1.0)
  }

  test("EDR hand case: one substitution") {
    val a = Array(Point(0, 0), Point(1, 0), Point(2, 0))
    val b = Array(Point(0, 0), Point(9, 9), Point(2, 0))
    assert(Distances.edr(a, b, 0.1) == 1.0)
  }

  test("EDR length difference forces at least |m-n| edits") {
    val a = Array(Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0))
    val b = Array(Point(0, 0))
    assert(Distances.edr(a, b, 0.1) == 3.0)
  }

  test("directedHausdorff is asymmetric component of hausdorff") {
    val a = Array(Point(0, 0), Point(10, 0))
    val b = Array(Point(0, 0))
    assert(Distances.directedHausdorff(b, a) == 0.0)
    assert(Distances.directedHausdorff(a, b) == 10.0)
    assert(Distances.hausdorff(a, b) == 10.0)
  }

  test("DTW of repeated point absorbs duplicates cheaply") {
    val a = Array(Point(0, 0), Point(0, 0), Point(0, 0))
    val b = Array(Point(0, 0))
    assert(Distances.dtw(a, b) == 0.0)
  }

  test("Frechet invariant under consecutive duplication") {
    for (a <- smallTrajs.take(10); b <- smallTrajs.take(10)) {
      val dup = b.points.flatMap(p => Array(p, p))
      assert(math.abs(Distances.frechet(a.points, dup) -
        Distances.frechet(a.points, b.points)) < 1e-9)
    }
  }
}
