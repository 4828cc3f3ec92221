package repro.core.rptrie

import scala.collection.mutable
import scala.util.Random

import repro.core.{Measure, Point, Trajectory, ZGrid}

/** Reference point trie (§III-B) in a flat, succinct layout after SuRF's
  * sparse levels, and path-compressed (PATRICIA, ART): a node is a maximal
  * unary chain of the per-label trie. Its incoming edge is a run of z-labels,
  * `labelAt(i)` for i in [`runFrom(v)`, `runUntil(v)`), held in one flat
  * array; a run ends where the per-label trie branches or holds ids, and the
  * root's is empty. A chain node's payload was its run end's, so payloads are
  * stored per node; `numLabels + 1` is the per-label node count.
  *
  * Handles are ints in [0, numNodes) in BFS order, children in ascending first
  * label, so v's children are the handles [firstChild(v), firstChild(v + 1));
  * the root is 0. A child's first label is the first label of its run. The
  * search only enumerates children, so no per-node label bitmap is kept.
  * Payloads are flat arrays.
  *
  * A node may both carry trajectory ids (the paper's `$`-terminated leaf for
  * a reference trajectory that is a prefix of another) and have children.
  */
final class RPTrie private (
    val grid: ZGrid,
    val measure: Measure,
    /** Global pivot trajectories (empty for non-metric measures). */
    val pivots: Array[Array[Point]],
    firstChild: Array[Int],
    runStart: Array[Int],
    runLabels: Array[Int],
    tidStart: Array[Int],
    tidArr: Array[Int],
    dmaxArr: Array[Double],
    maxDevArr: Array[Double],
    hrMinArr: Array[Double],
    hrMaxArr: Array[Double],
) extends Serializable {

  private val np = pivots.length

  def root: Int = 0

  def numNodes: Int = firstChild.length - 1

  /** Labels over all runs: the per-label trie has `numLabels + 1` nodes. */
  def numLabels: Int = runLabels.length

  def childCount(v: Int): Int = firstChild(v + 1) - firstChild(v)

  /** Iterate the children of `v` in ascending order of their runs' first
    * labels: f(first label, child).
    */
  def foreachChild(v: Int)(f: (Int, Int) => Unit): Unit = {
    var child = firstChild(v)
    val e = firstChild(v + 1)
    while (child < e) { f(runLabels(runStart(child)), child); child += 1 }
  }

  /** The run of `v` is `labelAt(i)` for i in [`runFrom(v)`, `runUntil(v)`). */
  def runFrom(v: Int): Int = runStart(v)
  def runUntil(v: Int): Int = runStart(v + 1)
  def labelAt(i: Int): Int = runLabels(i)

  /** Ids (indices into the partition's trajectories) ending at `v`, copied;
    * in place they are `tidAt(i)` for i in [`tidFrom(v)`, `tidUntil(v)`).
    */
  def tids(v: Int): Array[Int] = {
    val s = tidStart(v); val e = tidStart(v + 1)
    if (s == e) Array.emptyIntArray else java.util.Arrays.copyOfRange(tidArr, s, e)
  }
  def tidFrom(v: Int): Int = tidStart(v)
  def tidUntil(v: Int): Int = tidStart(v + 1)
  def tidAt(i: Int): Int = tidArr(i)

  /** Max distance from the trajectories ending at `v` to v's reference
    * trajectory — the `D_max` of Eq. 3. 0 for purely internal nodes.
    */
  def dmax(v: Int): Double = dmaxArr(v)

  /** Max over the whole subtree of D(τ, τ*) — bounds the reference-point
    * deviation used by the pivot bound `LB_p` (Eq. 5; see DESIGN.md).
    */
  def maxDev(v: Int): Double = maxDevArr(v)

  /** HR[p].min / HR[p].max — min / max distance from reference trajectories
    * in v's subtree to pivot p (§III-B).
    */
  def hrMin(v: Int, p: Int): Double = hrMinArr(v * np + p)
  def hrMax(v: Int, p: Int): Double = hrMaxArr(v * np + p)

  /** In-memory footprint estimate (index-size metric IS). */
  def estimatedSizeBytes: Long = org.apache.spark.util.SizeEstimator.estimate(this)
}

object RPTrie {

  /** Build-time node; children are keyed by their runs' first labels. */
  private final class BNode(var run: Array[Int]) {
    var children = mutable.LinkedHashMap.empty[Int, BNode]
    var tids = mutable.ArrayBuffer.empty[Int]
    var dmax = 0.0
    var maxDev = 0.0
    var hrMin: Array[Double] = null
    var hrMax: Array[Double] = null
  }

  /** Build an RP-Trie over `trajs` (§III-B).
    *
    * @param pivots    global pivot trajectories, selected once on the driver
    *                  by `selectPivots` and shipped in the closure that builds
    *                  each partition's trie; dropped for non-metric measures,
    *                  whose search has no `LB_p`.
    * @param optimized use the greedy hitting-set z-value re-arrangement
    *                  (§III-C) — applied only when the measure is order
    *                  independent (Hausdorff); otherwise the order-preserving
    *                  trie is built.
    */
  def build(
      trajs: Array[Trajectory],
      grid: ZGrid,
      measure: Measure,
      pivots: Array[Array[Point]],
      optimized: Boolean = true,
  ): RPTrie = {
    val kept = if (measure.isMetric) pivots else Array.empty[Array[Point]]
    val root = new BNode(Array.emptyIntArray)
    if (optimized && measure.orderIndependent)
      buildGreedy(root,
        mutable.ArrayBuffer.tabulate(trajs.length)(i => (grid.refSet(trajs(i).points), i)))
    else trajs.indices.foreach(i => insert(root, grid.refSeq(trajs(i).points), i))
    val numNodes = computePayloads(root, trajs, grid, measure, kept)
    freeze(root, numNodes, trajs.length, grid, measure, kept)
  }

  /** Select `np` pivots by sampling `groups` random groups and keeping the
    * one with the largest pairwise-distance sum (§III-B, after [21]).
    */
  def selectPivots(
      trajs: Array[Trajectory],
      measure: Measure,
      np: Int,
      groups: Int,
      seed: Long,
  ): Array[Array[Point]] = {
    if (np <= 0 || !measure.isMetric || trajs.isEmpty) return Array.empty
    val rnd = new Random(seed)
    val n = math.min(np, trajs.length)
    var best: Array[Int] = null
    var bestScore = -1.0
    var g = 0
    while (g < groups) {
      val pick = rnd.shuffle(trajs.indices.toVector).take(n).toArray
      var score = 0.0
      var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          score += measure.dist(trajs(pick(i)), trajs(pick(j)))
          j += 1
        }
        i += 1
      }
      if (score > bestScore) { bestScore = score; best = pick }
      g += 1
    }
    best.map(trajs(_).points.clone())
  }

  private def insert(root: BNode, zs: Array[Int], tid: Int): Unit =
    zs.foldLeft(root)((cur, z) => cur.children.getOrElseUpdate(z, new BNode(Array(z)))).tids += tid

  /** Greedy hitting-set construction (§III-C + Appendix B): at every level,
    * repeatedly promote the currently most frequent z-value to a child node,
    * claim every remaining set containing it, and subtract the claimed sets'
    * frequencies (the appendix's `C(Z) − C(Z^z)` differencing). A lone set's
    * cells become one run in ascending z, the order the greedy picks when
    * every count is 1.
    */
  private def buildGreedy(
      node: BNode,
      items: mutable.ArrayBuffer[(Array[Int], Int)],
  ): Unit = {
    val (ending, rest) = items.partition(_._1.isEmpty)
    node.tids ++= ending.map(_._2)
    var remaining = rest
    if (remaining.length == 1) {
      val child = new BNode(remaining(0)._1)
      child.tids += remaining(0)._2
      node.children.update(child.run(0), child)
      return
    }
    val counts = mutable.HashMap.empty[Int, Int]
    remaining.foreach(_._1.foreach(z => counts.update(z, counts.getOrElse(z, 0) + 1)))
    while (remaining.nonEmpty) {
      // Most frequent z-value; ties broken by smallest z for determinism.
      var bestZ = -1; var bestC = -1
      counts.foreach { case (z, c) =>
        if (c > bestC || (c == bestC && z < bestZ)) { bestZ = z; bestC = c }
      }
      val (hit, miss) = remaining.partition(it => java.util.Arrays.binarySearch(it._1, bestZ) >= 0)
      hit.foreach(_._1.foreach { z =>
        val c = counts(z) - 1
        if (c == 0) counts.remove(z) else counts.update(z, c)
      })
      val child = new BNode(Array(bestZ))
      node.children.update(bestZ, child)
      buildGreedy(child, hit.map { case (zs, tid) => (zs.filter(_ != bestZ), tid) })
      remaining = miss
    }
  }

  /** Merge every unary chain of non-root nodes without trajectory ids into
    * one node, compute accepting-node payloads (HR point values, D_max) by DFS
    * carrying the z-path, then propagate HR ranges and maxDev bottom-up.
    * Returns the number of nodes.
    */
  private def computePayloads(
      root: BNode,
      trajs: Array[Trajectory],
      grid: ZGrid,
      measure: Measure,
      pivots: Array[Array[Point]],
  ): Int = {
    val np = pivots.length
    val path = mutable.ArrayBuffer.empty[Int]
    var count = 0

    def visit(node: BNode): Unit = {
      count += 1
      node.hrMin = Array.fill(np)(Double.MaxValue)
      node.hrMax = Array.fill(np)(Double.MinValue)
      if (node.tids.nonEmpty) {
        val refPts = grid.refPoints(path.toArray)
        var p = 0
        while (p < np) {
          val d = measure.dist(refPts, pivots(p))
          node.hrMin(p) = d; node.hrMax(p) = d
          p += 1
        }
        var dm = 0.0
        node.tids.foreach { tid =>
          val d = measure.dist(trajs(tid).points, refPts)
          if (d > dm) dm = d
        }
        node.dmax = dm
        node.maxDev = dm
      }
      node.children.valuesIterator.foreach { c =>
        var end = c
        val run = mutable.ArrayBuilder.make[Int]
        while (end.tids.isEmpty && end.children.size == 1) {
          run ++= end.run
          end = end.children.head._2
        }
        if (end ne c) {
          c.run = (run ++= end.run).result()
          c.children = end.children
          c.tids = end.tids
        }
        path ++= c.run
        visit(c)
        path.remove(path.length - c.run.length, c.run.length)
        var p = 0
        while (p < np) {
          if (c.hrMin(p) < node.hrMin(p)) node.hrMin(p) = c.hrMin(p)
          if (c.hrMax(p) > node.hrMax(p)) node.hrMax(p) = c.hrMax(p)
          p += 1
        }
        if (c.maxDev > node.maxDev) node.maxDev = c.maxDev
      }
    }
    visit(root)
    count
  }

  /** Freeze the build tree into the flat layout in one BFS pass. The BFS
    * array doubles as the queue: a node's children get the next free handles
    * when it is dequeued.
    */
  private def freeze(
      root: BNode,
      n: Int,
      numTids: Int,
      grid: ZGrid,
      measure: Measure,
      pivots: Array[Array[Point]],
  ): RPTrie = {
    val np = pivots.length
    val bfs = new Array[BNode](n)
    bfs(0) = root
    var next = 1
    val firstChild = new Array[Int](n + 1)
    val runStart = new Array[Int](n + 1)
    val runLabels = mutable.ArrayBuilder.make[Int]
    val tidStart = new Array[Int](n + 1)
    val tidArr = new Array[Int](numTids)
    val dmaxArr = new Array[Double](n)
    val maxDevArr = new Array[Double](n)
    val hrMinArr = new Array[Double](n * np)
    val hrMaxArr = new Array[Double](n * np)

    var v = 0
    while (v < n) {
      val b = bfs(v)
      runLabels ++= b.run
      runStart(v + 1) = runStart(v) + b.run.length
      firstChild(v) = next
      b.children.values.toArray.sortBy(_.run(0)).foreach { c =>
        bfs(next) = c
        next += 1
      }
      b.tids.copyToArray(tidArr, tidStart(v))
      tidStart(v + 1) = tidStart(v) + b.tids.length
      dmaxArr(v) = b.dmax
      maxDevArr(v) = b.maxDev
      System.arraycopy(b.hrMin, 0, hrMinArr, v * np, np)
      System.arraycopy(b.hrMax, 0, hrMaxArr, v * np, np)
      v += 1
    }
    firstChild(n) = n

    new RPTrie(
      grid, measure, pivots, firstChild, runStart, runLabels.result(), tidStart,
      tidArr, dmaxArr, maxDevArr, hrMinArr, hrMaxArr)
  }
}
