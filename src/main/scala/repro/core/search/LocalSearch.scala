package repro.core.search

import scala.collection.mutable

import repro.core.{Measure, Point, Trajectory}
import repro.core.rptrie.RPTrie

/** Best-first top-k search over an RP-Trie (§IV, Algorithm 2).
  *
  * The search visits the per-label trie's nodes in ascending `LB_o` order.
  * `LB_o` never decreases down the trie (Lemmas 2–4; LCSS and EDR hold it
  * at 0), so the search terminates as soon as the popped bound exceeds the
  * current k-th distance `d_k`. `LB_p` (pivot
  * bound, Eq. 5 — see DESIGN.md for the two-sided correction) prunes whole
  * subtrees via `continue`; `LB_t` (two-side bound, Eq. 3) prunes individual
  * trajectories in accepting nodes.
  * A queue entry is a position in a node's run; a popped entry extends its
  * run while each new `LB_o` would be popped next anyway, and a parent
  * extends only its children's first labels. `LB_p` is per node.
  * Each entry owns its bound column (`Column`), so a popped entry extends
  * its run in place; each child is extended into a new column.
  * Once `d_k` is finite (the heap holds k, or the search was given a
  * bound), a trajectory that passes `LB_t` goes through the measure's
  * per-trajectory cascade (`BoundsOps.cascade`) and then its exact kernel
  * bounded by `d_k` (`Measure.distWithin`).
  * Ties go by id: a node bound equal to `d_k` cuts nothing, a trajectory
  * with `LB_t = d_k` is still evaluated when its id is below the k-th id,
  * and a kernel stops early only above `d_k`.
  */
object LocalSearch {

  /** Search counters, summed over every search it is passed to.
    * `exactDistances` counts kernel runs, `exactBeforeFull` those made
    * while d_k was +∞. Once the heap holds k, a trajectory that `LB_t`
    * admits is cut by the endpoint or the MBR bound (`cutByEndpoint`,
    * `cutByMbr`), or its kernel runs bounded by d_k; `abandoned` counts the
    * runs that came back above d_k, whether they stopped early or not.
    */
  final class Stats {
    var nodesPopped: Long = 0L
    var nodesPushed: Long = 0L
    var labelsExtended: Long = 0L
    var exactDistances: Long = 0L
    var exactBeforeFull: Long = 0L
    var cutByEndpoint: Long = 0L
    var cutByMbr: Long = 0L
    var abandoned: Long = 0L
  }

  /** Node `handle` with its run extended up to label index `pos`
    * (exclusive), into a column that no other entry references, so a popped
    * entry may overwrite it with its run's next label.
    */
  private final class SNode(val handle: Int, var pos: Int, var lbP: Double, arr: Array[Double])
      extends Column(arr)

  /** Ascending `lbO` first out of a `PriorityQueue`, which pops its maximum. */
  private val byLbO: Ordering[SNode] = new Ordering[SNode] {
    def compare(x: SNode, y: SNode): Int = java.lang.Double.compare(y.lbO, x.lbO)
  }

  /** Exact top-k of `q` among `trajs` under `trie.measure`. Returns at most
    * k (trajectoryId, distance) pairs sorted by (distance, id): the first k
    * of a brute-force scan in that order, ties included.
    *
    * With a `bound` (θ, id_θ), the heap starts with it as its admission
    * bound (`TopK`): d_k is θ from the first pop, so the cascade and the
    * bounded kernel run from the first evaluation. The result is then the
    * first k of the brute-force pairs ≤ (θ, id_θ), which is the top-k itself
    * whenever (θ, id_θ) is at or above the brute-force k-th pair.
    */
  def topK(
      trie: RPTrie,
      trajs: Array[Trajectory],
      q: Array[Point],
      k: Int,
      stats: Stats = new Stats,
      bound: (Double, Long) = TopK.Unbounded,
  ): Array[(Long, Double)] =
    topK(trie, trajs, q, pivotDistances(trie.measure, trie.pivots, q), k, stats, bound)

  /** d(q, p) for every pivot p, the query's side of `LB_p` (Eq. 5). */
  def pivotDistances(measure: Measure, pivots: Array[Array[Point]], q: Array[Point]): Array[Double] =
    pivots.map(measure.dist(q, _))

  /** `topK` with the query's pivot distances given: `dqp` must be
    * `pivotDistances` over `trie.pivots`. A caller that searches many tries
    * built with the same global pivots computes them once per query.
    */
  def topK(
      trie: RPTrie,
      trajs: Array[Trajectory],
      q: Array[Point],
      dqp: Array[Double],
      k: Int,
      stats: Stats,
      bound: (Double, Long),
  ): Array[(Long, Double)] = {
    if (k <= 0 || trajs.isEmpty) return Array.empty
    val measure = trie.measure
    val ops = BoundsOps.forMeasure(measure, trie.grid, q)
    val np = trie.pivots.length
    require(dqp.length == np, s"${dqp.length} pivot distances for $np pivots")

    val best = new TopK(k, bound)

    // Pivot bound for a node (both triangle directions, deviation-corrected).
    def pivotLB(v: Int): Double = {
      val dev = trie.maxDev(v)
      var lb = 0.0
      var p = 0
      while (p < np) {
        val x = math.max(dqp(p) - trie.hrMax(v, p) - dev, trie.hrMin(v, p) - dev - dqp(p))
        if (x > lb) lb = x
        p += 1
      }
      lb
    }

    // An `LB_t` survivor: exact while d_k = +∞, else the cascade and then
    // the kernel bounded by d_k.
    def evaluate(t: Trajectory): Unit =
      if (best.dk == Double.PositiveInfinity) {
        stats.exactDistances += 1
        stats.exactBeforeFull += 1
        best.offer(t.id, measure.dist(q, t.points))
      } else ops.cascade(t.points, t.id, best) match {
        case BoundsOps.CutByEndpoint => stats.cutByEndpoint += 1
        case BoundsOps.CutByMbr => stats.cutByMbr += 1
        case _ =>
          stats.exactDistances += 1
          val dk = best.dk
          val d = measure.distWithin(q, t.points, dk)
          if (d > dk) stats.abandoned += 1 else best.offer(t.id, d)
      }

    val pq = mutable.PriorityQueue.empty[SNode](byLbO)
    def push(t: SNode): Unit = { pq.enqueue(t); stats.nodesPushed += 1 }
    def extend(from: Column, z: Int, to: Column): Unit = {
      stats.labelsExtended += 1
      ops.extendInto(from.arr, from.aux, z, to)
    }
    val rs = ops.rootState
    val root = new SNode(trie.root, 0, 0.0, rs.arr)
    root.aux = rs.aux
    pq.enqueue(root)

    var done = false
    while (pq.nonEmpty && !done) {
      val t = pq.dequeue()
      stats.nodesPopped += 1
      if (t.lbO > best.dk) done = true // all remaining > d_k
      else if (t.lbP > best.dk) ()     // subtree pruned; continue
      else {
        val v = t.handle
        var atEnd = true
        while (atEnd && t.pos < trie.runUntil(v)) {
          extend(t, trie.labelAt(t.pos), t)
          t.pos += 1
          val next = t.lbO <= best.dk && (pq.isEmpty || t.lbO <= pq.head.lbO)
          if (!next) { // not next in line: cut or wait in the queue
            if (!(t.lbO > best.dk)) push(t)
            atEnd = false
          }
        }
        if (atEnd) { // at the run's end: node v itself
          var i = trie.tidFrom(v)
          val until = trie.tidUntil(v)
          if (i < until) { // D_max is read only at accepting nodes
            val dm = trie.dmax(v)
            while (i < until) {
              val traj = trajs(trie.tidAt(i))
              if (best.admits(ops.leafTidLB(t.refCore, dm, traj.length), traj.id)) evaluate(traj)
              i += 1
            }
          }
          trie.foreachChild(v) { (z, c) =>
            val out = new SNode(c, trie.runFrom(c) + 1, 0.0, new Array[Double](t.arr.length))
            extend(t, z, out)
            if (!(out.lbO > best.dk)) {
              out.lbP = if (np > 0) pivotLB(c) else 0.0
              if (out.lbP <= best.dk) push(out)
            }
          }
        }
      }
    }
    best.result
  }
}
