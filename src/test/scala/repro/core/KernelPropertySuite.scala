package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.core.search.{BoundsOps, Column, TopK}

/** Property tests of the bounded distance kernels over random pairs,
  * singleton trajectories and repeated points, with lattice coordinates for
  * exact distance ties: `dist` is bit-equal to the plain reference kernels,
  * `distWithin` is exact within its bound and a lower bound above it
  * otherwise, and every per-trajectory cascade bound is ≤ `dist`. Over
  * random reference paths, the incremental bound kernels are bit-equal to
  * the reference ones, in place or into a fresh column, and `extend` leaves
  * its argument unchanged. `TopK.order` is checked against the tuple order
  * it replaced.
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

  private val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)

  /** A query and a reference path of 1–25 cells, repeats allowed. */
  private val paths = for {
    q <- side
    n <- Gen.choose(1, 25)
    zs <- Gen.listOfN(n, Gen.choose(0, grid.numCells - 1))
  } yield (q, zs.toArray)

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => bits(a(i)) == bits(b(i)))

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

  test("TopK.order agrees with the tuple order it replaced, on ties, ±0.0, ±∞ and NaN") {
    val tupleOrder = Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)
    val special = Gen.oneOf(0.0, -0.0, 1.0, Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MaxValue, Double.MinPositiveValue, Double.NaN)
    val dist = Gen.frequency(2 -> special, 1 -> Gen.choose(-2.0, 2.0))
    val pair = for (d <- dist; id <- Gen.choose(-2L, 2L)) yield (d, id)
    check(Prop.forAll(pair, pair) { (x, y) =>
      assert(TopK.order.compare(x, y) == tupleOrder.compare(x, y), s"$x vs $y")
      assert(TopK.order.lt(x, y) == tupleOrder.lt(x, y), s"$x vs $y")
      val held = new TopK(1)
      held.offer(y._2, y._1)
      assert(held.admits(x._1, x._2) == tupleOrder.lt(x, y), s"$x vs $y")
      true
    })
  }

  for ((m, reference) <- measures) {
    test(s"${m.name}: incremental bounds are bit-equal to the reference kernels") {
      check(Prop.forAll(paths) { case (q, zs) =>
        val ops = BoundsOps.forMeasure(m, grid, q)
        val ref = ReferenceBounds.forMeasure(m, grid, q)
        // Hausdorff and Fréchet columns hold squared distances.
        val root: Double => Double = m match {
          case Hausdorff | Frechet => d => if (d == Double.MaxValue) d else math.sqrt(d)
          case _ => identity
        }
        var s = ops.rootState
        var r = ref.rootState
        for (z <- zs) {
          val e = ops.extend(s, z)
          val f = ref.extend(r, z)
          assert(bits(e.lbO) == bits(f.lbO) && bits(e.refCore) == bits(f.refCore),
            s"$e vs $f at $z; ${q.toSeq} along ${zs.toSeq}")
          assert(sameBits(e.state.arr.map(root), f.state.arr) && bits(root(e.state.aux)) == bits(f.state.aux),
            s"columns at $z; ${q.toSeq} along ${zs.toSeq}")
          s = e.state
          r = f.state
        }
        true
      })
    }

    test(s"${m.name}: extending in place or into a used column equals a fresh extension") {
      check(Prop.forAll(paths, Gen.choose(-1.0, 1.0)) { case ((q, zs), junk) =>
        val ops = BoundsOps.forMeasure(m, grid, q)
        val root = ops.rootState
        val inPlace = new Column(root.arr.clone())
        inPlace.aux = root.aux
        val used = new Column(Array.fill(root.arr.length)(junk))
        var s = root
        for (z <- zs) {
          val before = s.arr.clone()
          val e = ops.extend(s, z)
          assert(sameBits(s.arr, before), s"extend changed its argument at $z")
          ops.extendInto(s.arr, s.aux, z, used)
          ops.extendInto(inPlace.arr, inPlace.aux, z, inPlace)
          for (c <- Seq(inPlace, used))
            assert(sameBits(c.arr, e.state.arr) && bits(c.aux) == bits(e.state.aux) &&
              bits(c.lbO) == bits(e.lbO) && bits(c.refCore) == bits(e.refCore),
              s"at $z; ${q.toSeq} along ${zs.toSeq}")
          s = e.state
        }
        true
      })
    }

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
