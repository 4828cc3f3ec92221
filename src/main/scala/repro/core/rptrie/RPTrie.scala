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

  /** A trajectory's labels from `from` on, still to be placed, and its id.
    * An item is in one group at a time, so a split advances it in place.
    */
  private final class Item(val zs: Array[Int], var from: Int, val tid: Int) {
    def next: Int = zs(from)
  }

  /** A node's children as (the run's first labels, the child's group),
    * sorted by first label.
    */
  private type Branches = Array[(Array[Int], Array[Item])]

  /** Build an RP-Trie over `trajs` (§III-B) in one BFS pass over item
    * groups. Each group is split once into the ids that end at its node and
    * its children; only the split differs between the two tries, and in both
    * a lone item's remaining labels become one run. A child's edge takes
    * labels while its group neither ends nor splits into more than one
    * child, so every run is maximal.
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
    val np = kept.length
    val greedy = optimized && measure.orderIndependent
    def split(items: Array[Item]): (Array[Int], Branches) = {
      val (ending, rest) = items.partition(it => it.from == it.zs.length)
      (ending.map(_.tid), rest match {
        case Array(it) =>
          val run = it.zs.drop(it.from)
          it.from = it.zs.length
          Array((run, rest))
        case _ => if (greedy) byFrequentZ(rest) else byNextLabel(rest)
      })
    }

    // The queue holds each node's path from the root and its split; a node's
    // children get the next free handles, and its payload is computed, when
    // it is dequeued.
    val queue = mutable.Queue((Array.emptyIntArray, split(Array.tabulate(trajs.length) { i =>
      val pts = trajs(i).points
      new Item(if (greedy) grid.refSet(pts) else grid.refSeq(pts), 0, i)
    })))
    val parentB, firstChildB, runStartB, runLabelsB, tidStartB, tidB = new mutable.ArrayBuilder.ofInt
    val dmaxB, hrMinB, hrMaxB = new mutable.ArrayBuilder.ofDouble
    parentB += -1; runStartB += 0 += 0; tidStartB += 0
    var v = 0
    var next = 1
    while (queue.nonEmpty) {
      val (path, (tids, children)) = queue.dequeue()
      firstChildB += next
      children.foreach { case (first, group) =>
        val run = new mutable.ArrayBuilder.ofInt
        run ++= first
        var s = split(group)
        while (s._1.isEmpty && s._2.length == 1) { run ++= s._2(0)._1; s = split(s._2(0)._2) }
        val labels = run.result()
        runLabelsB ++= labels; runStartB += runLabelsB.length; parentB += v
        queue += ((path ++ labels, s))
        next += 1
      }
      tidB ++= tids; tidStartB += tidB.length
      if (tids.isEmpty) {
        dmaxB += 0.0
        hrMinB ++= Array.fill(np)(Double.MaxValue); hrMaxB ++= Array.fill(np)(Double.MinValue)
      } else {
        val refPts = grid.refPoints(path)
        dmaxB += tids.foldLeft(0.0) { (m, tid) =>
          val d = measure.dist(trajs(tid).points, refPts)
          if (d > m) d else m
        }
        val toPivots = kept.map(measure.dist(refPts, _))
        hrMinB ++= toPivots; hrMaxB ++= toPivots
      }
      v += 1
    }
    firstChildB += next
    val Array(parent, firstChild, runStart, runLabels, tidStart, tidArr) =
      Array(parentB, firstChildB, runStartB, runLabelsB, tidStartB, tidB).map(_.result())
    val Array(dmaxArr, hrMinArr, hrMaxArr) = Array(dmaxB, hrMinB, hrMaxB).map(_.result())
    val maxDevArr = dmaxArr.clone()

    // Fold maxDev and the HR ranges into each parent, children before parents.
    for (c <- next - 1 until 0 by -1) {
      val u = parent(c)
      if (maxDevArr(c) > maxDevArr(u)) maxDevArr(u) = maxDevArr(c)
      for (p <- 0 until np) {
        if (hrMinArr(c * np + p) < hrMinArr(u * np + p)) hrMinArr(u * np + p) = hrMinArr(c * np + p)
        if (hrMaxArr(c * np + p) > hrMaxArr(u * np + p)) hrMaxArr(u * np + p) = hrMaxArr(c * np + p)
      }
    }
    new RPTrie(
      grid, measure, kept, firstChild, runStart, runLabels, tidStart,
      tidArr, dmaxArr, maxDevArr, hrMinArr, hrMaxArr)
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

  /** Order-preserving split (§III-B): one child per next label, in label
    * order. The sort is stable, so each child's items keep their order;
    * every run of equal next labels is one child, its items advanced past it.
    */
  private def byNextLabel(items: Array[Item]): Branches = {
    val sorted = items.sortBy(_.next)
    val children = Array.newBuilder[(Array[Int], Array[Item])]
    var i = 0
    while (i < sorted.length) {
      val z = sorted(i).next
      var j = i + 1
      while (j < sorted.length && sorted(j).next == z) j += 1
      val group = sorted.slice(i, j)
      group.foreach(_.from += 1)
      children += ((Array(z), group))
      i = j
    }
    children.result()
  }

  /** Greedy hitting-set split (§III-C + Appendix B): repeatedly promote the
    * currently most frequent z-value to a child, claim every remaining set
    * containing it, and subtract the claimed sets' frequencies (the
    * appendix's `C(Z) − C(Z^z)` differencing). Its items are whole ascending
    * sets (`from` = 0); a child's are copies without the promoted z-value.
    */
  private def byFrequentZ(items: Array[Item]): Branches = {
    val children = mutable.ArrayBuffer.empty[(Array[Int], Array[Item])]
    val counts = mutable.HashMap.empty[Int, Int]
    items.foreach(_.zs.foreach(z => counts.update(z, counts.getOrElse(z, 0) + 1)))
    var remaining = items
    while (remaining.nonEmpty) {
      // Most frequent z-value; ties broken by smallest z for determinism.
      var bestZ = -1; var bestC = -1
      counts.foreach { case (z, c) =>
        if (c > bestC || (c == bestC && z < bestZ)) { bestZ = z; bestC = c }
      }
      val (hit, miss) = remaining.partition(it => java.util.Arrays.binarySearch(it.zs, bestZ) >= 0)
      hit.foreach(_.zs.foreach { z =>
        val c = counts(z) - 1
        if (c == 0) counts.remove(z) else counts.update(z, c)
      })
      children += ((Array(bestZ), hit.map(it => new Item(it.zs.filter(_ != bestZ), 0, it.tid))))
      remaining = miss
    }
    children.toArray.sortBy(_._1(0))
  }
}
