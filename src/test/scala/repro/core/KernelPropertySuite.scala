package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.core.search.{BoundsOps, TopK}

/** Property tests of the bounded distance kernels over random pairs,
  * singleton trajectories and repeated points, with lattice coordinates for
  * exact distance ties: `dist` is bit-equal to the plain reference kernels,
  * `distWithin` is exact within its bound and a lower bound above it
  * otherwise, and every per-trajectory cascade bound is ≤ `dist`.
  */
class KernelPropertySuite extends AnyFunSuite {

  private val g = Point(5, 5)
  private val eps = 1.0

  private val measures: Seq[(Measure, (Array[Point], Array[Point]) => Double)] = Seq(
    Hausdorff -> ReferenceDistances.hausdorff,
    Frechet -> ReferenceDistances.frechet,
    DTW -> ReferenceDistances.dtw,
    ERP(g) -> ((a, b) => ReferenceDistances.erp(a, b, g)),
    LCSS(eps) -> ((a, b) => ReferenceDistances.lcssDist(a, b, eps)),
    EDR(eps) -> ((a, b) => ReferenceDistances.edr(a, b, eps)),
  )

  private def point(lattice: Boolean): Gen[Point] =
    if (lattice) for (x <- Gen.choose(0, 4); y <- Gen.choose(0, 4)) yield Point(x.toDouble, y.toDouble)
    else for (x <- Gen.choose(0.0, 10.0); y <- Gen.choose(0.0, 10.0)) yield Point(x, y)

  /** Up to 20 distinct draws, each repeated 1–3 times in a row. */
  private val traj: Gen[Array[Point]] = for {
    lattice <- Gen.oneOf(false, true)
    n <- Gen.choose(1, 20)
    pts <- Gen.listOfN(n, point(lattice))
    reps <- Gen.listOfN(n, Gen.frequency(3 -> 1, 1 -> 2, 1 -> 3))
  } yield pts.zip(reps).flatMap { case (p, r) => Seq.fill(r)(p) }.toArray

  private val singleton: Gen[Array[Point]] =
    Gen.oneOf(false, true).flatMap(point).map(Array(_))

  private val side = Gen.frequency(4 -> traj, 1 -> singleton)

  /** (a, b, r): a pair and a uniform draw for a random bound. */
  private val cases = for (a <- side; b <- side; r <- Gen.choose(0.0, 1.0)) yield (a, b, r)

  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(42L))
    val res = Test.check(params, prop)
    assert(res.passed, Pretty.pretty(res))
  }

  private def show(a: Array[Point], b: Array[Point]) = s"${a.toSeq} vs ${b.toSeq}"

  test("a squared distance above the rounded bound² whose root is the bound stays within it") {
    // 1 + 2⁻⁵² is the next double above 1.0 = 1.0², and its root rounds to 1.0.
    val a = Array(Point(0, 0))
    val b = Array(Point(1, math.pow(2, -26)))
    assert(a(0).dist(b(0)) == 1.0)
    for ((m, reference) <- measures) {
      assert(m.dist(a, b) == reference(a, b), m.name)
      assert(m.distWithin(a, b, 1.0) == m.dist(a, b), m.name)
    }
    assert(LCSS(eps).dist(a, b) == 0.0 && EDR(eps).dist(a, b) == 0.0)
  }

  for ((m, reference) <- measures) {
    test(s"${m.name}: dist is bit-equal to the reference kernel") {
      check(Prop.forAll(cases) { case (a, b, _) =>
        val d = m.dist(a, b)
        assert(d == reference(a, b), show(a, b))
        true
      })
    }

    test(s"${m.name}: distWithin is exact within its bound and a lower bound above it") {
      check(Prop.forAll(cases) { case (a, b, r) =>
        val d = m.dist(a, b)
        for (bound <- Seq(0.0, math.nextDown(d), d, r * 2 * math.max(d, 1.0), Double.PositiveInfinity)) {
          val w = m.distWithin(a, b, bound)
          if (d <= bound) assert(w == d, s"bound $bound: $w, exact $d; ${show(a, b)}")
          else assert(w > bound && w <= d, s"bound $bound: $w, exact $d; ${show(a, b)}")
        }
        true
      })
    }

    test(s"${m.name}: every cascade bound is at most dist") {
      val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
      check(Prop.forAll(cases) { case (q, t, _) =>
        val d = m.dist(q, t)
        m match {
          case Hausdorff => assert(BoundsOps.mbrMaxLB(q, t) <= d)
          case Frechet =>
            assert(BoundsOps.endpointLB(q, t) <= d)
            assert(BoundsOps.mbrMaxLB(q, t) <= d)
          case DTW => assert(BoundsOps.mbrSumLB(q, t) <= d)
          case _ => ()
        }
        // A held (d, 1) admits (d, 0): any bound above d would cut id 0.
        val best = new TopK(1)
        best.offer(1L, d)
        assert(BoundsOps.forMeasure(m, grid, q).cascade(t, 0L, best) == BoundsOps.Admitted, show(q, t))
        true
      })
    }
  }
}
