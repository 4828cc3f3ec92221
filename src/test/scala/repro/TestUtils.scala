package repro

import scala.util.Random

import repro.core._
import repro.core.rptrie.RPTrie
import repro.core.search.LocalSearch

/** Shared helpers for unit and integration tests. */
object TestUtils {

  /** The six measures, with the parameters the suites test them under. */
  val measures: Seq[Measure] = Seq(Hausdorff, Frechet, DTW, ERP(Point(5, 5)), LCSS(1.0), EDR(1.0))

  /** Small in-memory random-walk trajectories (no Spark). */
  def randomTrajs(
      n: Int,
      maxLen: Int = 20,
      span: Double = 10.0,
      seed: Long = 5L,
  ): Array[Trajectory] = {
    val rnd = new Random(seed)
    Array.tabulate(n) { i =>
      val len = 2 + rnd.nextInt(math.max(1, maxLen - 2))
      var x = rnd.nextDouble() * span
      var y = rnd.nextDouble() * span
      val pts = Array.fill(len) {
        x = math.max(0, math.min(span, x + (rnd.nextDouble() - 0.5) * span / 10))
        y = math.max(0, math.min(span, y + (rnd.nextDouble() - 0.5) * span / 10))
        Point(x, y)
      }
      Trajectory(i.toLong, pts)
    }
  }

  /** `randomTrajs` with every trajectory twice, under id 2i+1 and then 2i:
    * every distance is tied, and the larger id of each pair comes first.
    */
  def tiedTrajs(n: Int, maxLen: Int = 14, seed: Long = 5L): Array[Trajectory] =
    randomTrajs(n, maxLen, seed = seed).flatMap { t =>
      Array(Trajectory(2 * t.id + 1, t.points), Trajectory(2 * t.id, t.points))
    }

  def randomQuery(len: Int, span: Double = 10.0, seed: Long = 99L): Array[Point] = {
    val rnd = new Random(seed)
    var x = rnd.nextDouble() * span
    var y = rnd.nextDouble() * span
    Array.fill(len) {
      x = math.max(0, math.min(span, x + (rnd.nextDouble() - 0.5) * span / 10))
      y = math.max(0, math.min(span, y + (rnd.nextDouble() - 0.5) * span / 10))
      Point(x, y)
    }
  }

  /** Ground-truth top-k by exhaustive distance computation, sorted by
    * (distance, id) — the order every search must reproduce.
    */
  def bruteTopK(
      trajs: Array[Trajectory],
      q: Array[Point],
      k: Int,
      measure: Measure,
  ): Array[(Long, Double)] =
    trajs.map(t => (t.id, measure.dist(q, t.points)))
      .sortBy(r => (r._2, r._1))
      .take(k)

  /** Exact top-k equality: `got` must equal `expected` element for element,
    * (id, distance) with ties in (distance, id) order, and every reported
    * distance must be genuine.
    */
  def assertTopKEqual(
      got: Array[(Long, Double)],
      expected: Array[(Long, Double)],
      trajs: Array[Trajectory],
      q: Array[Point],
      measure: Measure,
      tol: Double = 1e-9,
  ): Unit = {
    val byId = trajs.map(t => t.id -> t).toMap
    got.foreach { case (id, d) =>
      val actual = measure.dist(q, byId(id).points)
      assert(math.abs(actual - d) <= tol, s"reported distance $d for id $id but actual $actual")
    }
    assert(got.sameElements(expected),
      s"got ${got.mkString(", ")}; expected ${expected.mkString(", ")}")
  }

  /** A trie over `trajs` whose `np` pivots `selectPivots` picks from `trajs`
    * themselves (10 candidate groups, seed 42).
    */
  def trie(
      trajs: Array[Trajectory],
      grid: ZGrid,
      measure: Measure,
      np: Int = 5,
      optimized: Boolean = true,
  ): RPTrie =
    RPTrie.build(trajs, grid, measure, RPTrie.selectPivots(trajs, measure, np, 10, 42L), optimized)

  /** A `Repose.twoRoundTopK` round over in-memory (p, trie, trajectories). */
  def runRound(parts: Seq[(Int, RPTrie, Array[Trajectory])], qs: Array[Array[Point]])(k: Int,
      bounds: Array[(Double, Long)], searched: Array[Array[Boolean]]): Array[(Int, Array[Array[(Long, Double)]])] =
    parts.map { case (p, trie, ts) =>
      p -> Array.tabulate(qs.length) { qi =>
        if (searched(qi)(p)) LocalSearch.topK(trie, ts, qs(qi), k, bound = bounds(qi))
        else Array.empty[(Long, Double)]
      }
    }.toArray

  /** The run of z-labels on the edge into trie node `v`. */
  def run(trie: RPTrie, v: Int): Seq[Int] =
    (trie.runFrom(v) until trie.runUntil(v)).map(trie.labelAt)

  /** Table II trajectories of the paper's running example. */
  def paperTrajs: Array[Trajectory] = Array(
    Trajectory(1, Array(Point(0.5, 7.5), Point(2.5, 7.5), Point(6.5, 7.5), Point(6.5, 4.5))),
    Trajectory(2, Array(Point(1.5, 0.5), Point(2.5, 0.5), Point(2.5, 4.5), Point(4.5, 4.5))),
    Trajectory(3, Array(Point(4.5, 0.5), Point(7.5, 0.5), Point(7.5, 2.5), Point(4.5, 2.5), Point(4.5, 1.5))),
    Trajectory(4, Array(Point(0.5, 7.5), Point(2.5, 7.5), Point(5.5, 7.5), Point(5.5, 3.5))),
    Trajectory(5, Array(Point(1.5, 0.5), Point(2.5, 0.5), Point(2.5, 5.5), Point(0.5, 5.5), Point(0.5, 2.5))),
  )

  def paperQuery: Array[Point] = Array(Point(0.5, 6.5), Point(2.5, 6.5), Point(4.5, 6.5))

  /** The 8×8 grid of Fig. 1 (region [0,8]×[0,8], δ = 1). */
  def paperGrid: ZGrid = ZGrid(0.0, 0.0, 8, 1.0)
}
