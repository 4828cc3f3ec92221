package repro.core.rptrie

import scala.collection.mutable
import scala.util.Random

import repro.core.{Measure, Point, Trajectory, ZGrid}

/** Reference point trie (§III-B) in the paper's succinct layout, after SuRF.
  *
  * Node handles are ints in [0, numNodes), numbered in BFS order with each
  * node's children in ascending z, so a node's children are consecutive
  * handles from `firstChild`; the root is handle 0. Upper (dense) levels —
  * few, frequently visited nodes — store each node's child labels as a
  * `numCells`-bit bitmap `B_c`, concatenated in BFS order. Lower (sparse)
  * levels — the long tail — store them as CSR label arrays. Payloads are flat
  * arrays indexed by handle.
  *
  * A node may both carry trajectory ids (the paper's `$`-terminated leaf for
  * a reference trajectory that is a prefix of another) and have children.
  */
final class RPTrie private (
    val grid: ZGrid,
    val measure: Measure,
    /** Global pivot trajectories (empty for non-metric measures). */
    val pivots: Array[Array[Point]],
    val numNodes: Int,
    /** Handles [0, denseCount) use the dense encoding. */
    val denseCount: Int,
    wordsPerNode: Int,
    bc: Array[Long],
    firstChild: Array[Int],
    csrStart: Array[Int],
    csrLabels: Array[Int],
    tidStart: Array[Int],
    tidArr: Array[Int],
    dmaxArr: Array[Double],
    maxDevArr: Array[Double],
    hrMinArr: Array[Double],
    hrMaxArr: Array[Double],
) extends Serializable {

  private val np = pivots.length

  def root: Int = 0

  def childCount(v: Int): Int =
    if (v < denseCount) {
      var c = 0
      var w = v * wordsPerNode
      val end = w + wordsPerNode
      while (w < end) { c += java.lang.Long.bitCount(bc(w)); w += 1 }
      c
    } else csrStart(v - denseCount + 1) - csrStart(v - denseCount)

  /** Iterate the children of `v` in ascending z-label order: f(z, child). */
  def foreachChild(v: Int)(f: (Int, Int) => Unit): Unit = {
    var child = firstChild(v)
    if (v < denseCount) {
      val base = v * wordsPerNode
      var w = 0
      while (w < wordsPerNode) {
        var word = bc(base + w)
        while (word != 0L) {
          val bit = java.lang.Long.numberOfTrailingZeros(word)
          f(w * 64 + bit, child)
          child += 1
          word &= word - 1
        }
        w += 1
      }
    } else {
      val s = csrStart(v - denseCount)
      val e = csrStart(v - denseCount + 1)
      var i = s
      while (i < e) { f(csrLabels(i), child); child += 1; i += 1 }
    }
  }

  /** Trajectory ids (indices into the partition's trajectory array) whose
    * reference trajectory ends at `v`, as a fresh array; empty when `v` is
    * purely internal. The search reads them in place instead:
    * `tidAt(i)` for i in [`tidFrom(v)`, `tidUntil(v)`).
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

  /** Grids with more cells than this encode every level sparsely. */
  val DenseCellMax = 4096

  /** Upper levels are dense while the node count through them stays within
    * this.
    */
  val DenseNodeMax = 256

  /** Mutable node used only during construction. */
  private final class BNode(val z: Int) {
    val children = mutable.LinkedHashMap.empty[Int, BNode]
    val tids = mutable.ArrayBuffer.empty[Int]
    var dmax = 0.0
    var maxDev = 0.0
    var hrMin: Array[Double] = null
    var hrMax: Array[Double] = null
  }

  /** Build an RP-Trie over `trajs` (§III-B).
    *
    * @param optimized use the greedy hitting-set z-value re-arrangement
    *                  (§III-C) — applied only when the measure is order
    *                  independent (Hausdorff); otherwise the order-preserving
    *                  trie is built.
    * @param np          number of pivot trajectories (0 disables `LB_p`;
    *                    forced to 0 for non-metric measures)
    * @param pivotGroups number of random candidate groups scored by pairwise
    *                    distance sum when selecting pivots (§III-B)
    * @param givenPivots pre-selected (global) pivot trajectories — the
    *                    distributed build selects pivots once on the driver
    *                    and broadcasts them; when null, pivots are selected
    *                    locally from `trajs`.
    * @param denseNodeMax test hook for the dense/sparse split (0 encodes
    *                    every level sparsely); builds use `DenseNodeMax`.
    */
  def build(
      trajs: Array[Trajectory],
      grid: ZGrid,
      measure: Measure,
      np: Int = 5,
      pivotGroups: Int = 10,
      optimized: Boolean = true,
      seed: Long = 42L,
      givenPivots: Array[Array[Point]] = null,
      denseNodeMax: Int = DenseNodeMax,
  ): RPTrie = {
    val pivots =
      if (givenPivots != null) { if (measure.isMetric) givenPivots else Array.empty[Array[Point]] }
      else selectPivots(trajs, measure, np, pivotGroups, seed)
    val root = new BNode(-1)
    if (optimized && measure.orderIndependent) {
      val items = mutable.ArrayBuffer.tabulate(trajs.length) { i =>
        (grid.refSet(trajs(i).points), i)
      }
      buildGreedy(root, items)
    } else {
      var i = 0
      while (i < trajs.length) {
        insert(root, grid.refSeq(trajs(i).points), i)
        i += 1
      }
    }
    val numNodes = computePayloads(root, trajs, grid, measure, pivots)
    freeze(root, numNodes, trajs.length, grid, measure, pivots, denseNodeMax)
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

  private def insert(root: BNode, zs: Array[Int], tid: Int): Unit = {
    var cur = root
    var i = 0
    while (i < zs.length) {
      cur = cur.children.getOrElseUpdate(zs(i), new BNode(zs(i)))
      i += 1
    }
    cur.tids += tid
  }

  /** Greedy hitting-set construction (§III-C + Appendix B): at every level,
    * repeatedly promote the currently most frequent z-value to a child node,
    * claim every remaining set containing it, and subtract the claimed sets'
    * frequencies (the appendix's `C(Z) − C(Z^z)` differencing).
    */
  private def buildGreedy(
      node: BNode,
      items: mutable.ArrayBuffer[(Array[Int], Int)],
  ): Unit = {
    var remaining = mutable.ArrayBuffer.empty[(Array[Int], Int)]
    items.foreach { it =>
      if (it._1.isEmpty) node.tids += it._2 else remaining += it
    }
    if (remaining.isEmpty) return
    val counts = mutable.HashMap.empty[Int, Int]
    remaining.foreach(_._1.foreach(z => counts.update(z, counts.getOrElse(z, 0) + 1)))
    while (remaining.nonEmpty) {
      // Most frequent z-value; ties broken by smallest z for determinism.
      var bestZ = -1; var bestC = -1
      counts.foreach { case (z, c) =>
        if (c > bestC || (c == bestC && z < bestZ)) { bestZ = z; bestC = c }
      }
      val hit = mutable.ArrayBuffer.empty[(Array[Int], Int)]
      val miss = mutable.ArrayBuffer.empty[(Array[Int], Int)]
      remaining.foreach { it =>
        if (java.util.Arrays.binarySearch(it._1, bestZ) >= 0) hit += it else miss += it
      }
      hit.foreach(_._1.foreach { z =>
        val c = counts(z) - 1
        if (c == 0) counts.remove(z) else counts.update(z, c)
      })
      val child = new BNode(bestZ)
      node.children.update(bestZ, child)
      buildGreedy(child, hit.map { case (zs, tid) => (zs.filter(_ != bestZ), tid) })
      remaining = miss
    }
  }

  /** Compute accepting-node payloads (HR point values, D_max) by DFS carrying
    * the z-path, then propagate HR ranges and maxDev bottom-up. Returns the
    * number of nodes.
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
        path += c.z
        visit(c)
        path.remove(path.length - 1)
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
    * when it is dequeued. When the pass reaches a level's first node, that
    * level is exactly the nodes enqueued but not yet dequeued, so whole levels
    * are encoded densely while the node count through them stays within
    * `denseNodeMax` and the grid has at most `DenseCellMax` cells.
    */
  private def freeze(
      root: BNode,
      n: Int,
      numTids: Int,
      grid: ZGrid,
      measure: Measure,
      pivots: Array[Array[Point]],
      denseNodeMax: Int,
  ): RPTrie = {
    val np = pivots.length
    val denseAllowed = grid.numCells <= DenseCellMax
    val wordsPerNode = math.max(1, (grid.numCells + 63) / 64)
    val bfs = new Array[BNode](n)
    bfs(0) = root
    var next = 1
    var levelEnd = 0
    var denseCount = 0
    var bc = Array.emptyLongArray
    var csrStart: Array[Int] = null // allocated at the first sparse level
    val csrLabels = new Array[Int](n - 1)
    var labels = 0
    val firstChild = new Array[Int](n)
    val tidStart = new Array[Int](n + 1)
    val tidArr = new Array[Int](numTids)
    val dmaxArr = new Array[Double](n)
    val maxDevArr = new Array[Double](n)
    val hrMinArr = new Array[Double](n * np)
    val hrMaxArr = new Array[Double](n * np)

    var v = 0
    while (v < n) {
      if (v == levelEnd) {
        if (csrStart == null) {
          if (denseAllowed && next <= denseNodeMax) {
            denseCount = next
            bc = java.util.Arrays.copyOf(bc, denseCount * wordsPerNode)
          } else csrStart = new Array[Int](n - denseCount + 1)
        }
        levelEnd = next
      }
      val b = bfs(v)
      val kids = b.children.values.toArray.sortBy(_.z)
      firstChild(v) = if (kids.isEmpty) -1 else next
      kids.foreach { c =>
        bfs(next) = c
        next += 1
        if (v < denseCount) bc(v * wordsPerNode + (c.z >> 6)) |= 1L << (c.z & 63)
        else { csrLabels(labels) = c.z; labels += 1 }
      }
      if (v >= denseCount) csrStart(v - denseCount + 1) = labels
      b.tids.copyToArray(tidArr, tidStart(v))
      tidStart(v + 1) = tidStart(v) + b.tids.length
      dmaxArr(v) = b.dmax
      maxDevArr(v) = b.maxDev
      System.arraycopy(b.hrMin, 0, hrMinArr, v * np, np)
      System.arraycopy(b.hrMax, 0, hrMaxArr, v * np, np)
      v += 1
    }
    if (csrStart == null) csrStart = new Array[Int](1) // every level dense

    new RPTrie(
      grid, measure, pivots, n, denseCount, wordsPerNode, bc, firstChild,
      csrStart, java.util.Arrays.copyOf(csrLabels, labels),
      tidStart, tidArr, dmaxArr, maxDevArr, hrMinArr, hrMaxArr)
  }
}
