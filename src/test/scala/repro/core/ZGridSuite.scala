package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.TestUtils

/** Z-order grid tests, anchored on the paper's Example 2 and Fig. 1. */
class ZGridSuite extends AnyFunSuite {

  private val grid = TestUtils.paperGrid // 8×8, δ=1 over [0,8]²

  test("Example 2: cell (x=010, y=101) has z-value 011001") {
    assert(grid.zOf(Integer.parseInt("010", 2), Integer.parseInt("101", 2)) ==
      Integer.parseInt("011001", 2))
  }

  test("z-value of origin cell is 0") { assert(grid.zOf(0, 0) == 0) }

  test("z-value of last cell is all ones") {
    assert(grid.zOf(7, 7) == 63)
  }

  test("zOf/cellOfZ round-trip over the full 8x8 grid") {
    for (cx <- 0 until 8; cy <- 0 until 8) {
      val z = grid.zOf(cx, cy)
      assert(ReferenceBounds.cellOfZ(grid, z) == ((cx, cy)))
      assert(grid.cornerX(z) == grid.minX + cx * grid.delta)
      assert(grid.cornerY(z) == grid.minY + cy * grid.delta)
    }
  }

  test("z-values are a bijection over cells") {
    val zs = for (cx <- 0 until 8; cy <- 0 until 8) yield grid.zOf(cx, cy)
    assert(zs.toSet.size == 64)
    assert(zs.min == 0 && zs.max == 63)
  }

  test("interleave gives the z-values of the per-encoder loops over a full 10-bit grid") {
    // The bit loop that zOf and DFT's centroid key each ran before sharing it.
    def loop(cx: Int, cy: Int): Long = {
      var z = 0L
      for (b <- 0 until 10) {
        z |= ((cx >> b) & 1).toLong << (2 * b + 1)
        z |= ((cy >> b) & 1).toLong << (2 * b)
      }
      z
    }
    val g = ZGrid(0, 0, 1024, 1.0)
    val mismatches = (for (cx <- 0 until 1024; cy <- 0 until 1024) yield {
      val z = loop(cx, cy)
      if (ZGrid.interleave(cx, cy, 10) != z || g.zOf(cx, cy) != z) 1 else 0
    }).sum
    assert(mismatches == 0)
  }

  test("cellOf maps points to enclosing cells") {
    assert(grid.cellOf(Point(0.5, 7.5)) == ((0, 7)))
    assert(grid.cellOf(Point(6.5, 4.5)) == ((6, 4)))
  }

  test("cellOf clamps out-of-region points") {
    assert(grid.cellOf(Point(-3, 100)) == ((0, 7)))
  }

  test("refPoint is the center of the cell") {
    val z = grid.zOf(2, 5)
    assert(grid.refPoint(z) == Point(2.5, 5.5))
  }

  test("distance from any point to its reference point is at most sqrt(2)*delta/2") {
    val rnd = new Random(1)
    for (_ <- 1 to 500) {
      val p = Point(rnd.nextDouble() * 8, rnd.nextDouble() * 8)
      assert(p.dist(grid.refPoint(grid.zOf(p))) <= grid.halfDiag + 1e-12)
    }
  }

  test("cellMinDist is zero inside the cell") {
    val z = grid.zOf(3, 3)
    assert(grid.cellMinDist(Point(3.5, 3.2), grid.cornerX(z), grid.cornerY(z)) == 0.0)
  }

  test("cellMinDist lower-bounds distance to any point in the cell") {
    val rnd = new Random(2)
    val z = grid.zOf(5, 2)
    for (_ <- 1 to 300) {
      val inCell = Point(5.0 + rnd.nextDouble(), 2.0 + rnd.nextDouble())
      val q = Point(rnd.nextDouble() * 8, rnd.nextDouble() * 8)
      assert(grid.cellMinDist(q, grid.cornerX(z), grid.cornerY(z)) <= q.dist(inCell) + 1e-12)
    }
  }

  test("refSeq collapses consecutive duplicates only") {
    val pts = Array(Point(0.2, 0.2), Point(0.8, 0.8), Point(1.5, 0.5), Point(0.5, 0.5))
    val zs = grid.refSeq(pts)
    assert(zs.length == 3)
    assert(zs(0) == grid.zOf(0, 0) && zs(2) == grid.zOf(0, 0))
  }

  test("refSet drops duplicates and order") {
    val pts = Array(Point(0.2, 0.2), Point(1.5, 0.5), Point(0.5, 0.5))
    val zs = grid.refSet(pts)
    assert(zs.toSet == Set(grid.zOf(0, 0), grid.zOf(1, 0)))
    assert(zs.sorted.sameElements(zs))
  }

  test("refSeq of Table II tau_2 follows its cells") {
    val zs = grid.refSeq(TestUtils.paperTrajs(1).points)
    assert(zs.sameElements(Array(
      grid.zOf(1, 0), grid.zOf(2, 0), grid.zOf(2, 4), grid.zOf(4, 4))))
  }

  test("ZGrid.fit produces a power-of-two side covering the MBR") {
    val g = ZGrid.fit(MBR(0, 0, 10, 5), delta = 1.0)
    assert((g.l & (g.l - 1)) == 0)
    assert(g.l * g.delta >= 10.0)
  }

  test("ZGrid.fit clamps extreme resolutions to maxSide") {
    val g = ZGrid.fit(MBR(0, 0, 1000, 1000), delta = 0.001, maxSide = 1024)
    assert(g.l == 1024)
    assert(g.delta > 0.001) // adjusted upward to still cover the region
    assert(g.l * g.delta >= 1000.0)
  }

  test("ZGrid.fit keeps requested delta when it already covers") {
    val g = ZGrid.fit(MBR(0, 0, 3, 3), delta = 1.0)
    assert(g.delta == 1.0)
    assert(g.l == 4 || g.l * g.delta >= 3.0 + 1.0)
  }

  test("grid rejects non-power-of-two side") {
    intercept[IllegalArgumentException](ZGrid(0, 0, 6, 1.0))
  }

  test("numCells and U are consistent") {
    assert(grid.numCells == 64)
    assert(grid.U == 8.0)
  }

  test("refPoints maps a z sequence to center points") {
    val zs = Array(grid.zOf(0, 0), grid.zOf(1, 1))
    assert(grid.refPoints(zs).sameElements(Array(Point(0.5, 0.5), Point(1.5, 1.5))))
  }
}
