package repro.core.search

import scala.collection.mutable

import repro.core.{Point, Trajectory}
import repro.core.rptrie.RPTrie

/** Best-first top-k search over an RP-Trie (§IV, Algorithm 2).
  *
  * Nodes are expanded in ascending `LB_o` order. For measures with monotone
  * `LB_o` (Lemmas 2–4) the search terminates as soon as the popped bound
  * reaches the current k-th distance `d_k`. `LB_p` (pivot bound, Eq. 5 — see
  * DESIGN.md for the two-sided correction) prunes whole subtrees via
  * `continue`; `LB_t` (two-side bound, Eq. 3) prunes individual trajectories
  * in accepting nodes.
  * Ties go by id: a node bound equal to `d_k` cuts nothing, and a trajectory
  * with `LB_t = d_k` is still evaluated when its id is below the k-th id.
  */
object LocalSearch {

  /** Optional instrumentation for pruning-effectiveness tests. */
  final class Stats {
    var nodesPopped: Long = 0L
    var nodesPushed: Long = 0L
    var exactDistances: Long = 0L
  }

  private final case class SNode(
      handle: Int,
      lbO: Double,
      lbP: Double,
      refCore: Double,
      state: BState,
  )

  /** Exact top-k of `q` among `trajs` under `trie.measure`. Returns at most
    * k (trajectoryId, distance) pairs sorted by (distance, id): the first k
    * of a brute-force scan in that order, ties included.
    */
  def topK(
      trie: RPTrie,
      trajs: Array[Trajectory],
      q: Array[Point],
      k: Int,
      stats: Stats = null,
  ): Array[(Long, Double)] = {
    if (k <= 0 || trajs.isEmpty) return Array.empty
    val measure = trie.measure
    val ops = BoundsOps.forMeasure(measure, trie.grid, q)
    val np = trie.pivots.length
    val dqp = trie.pivots.map(p => measure.dist(q, p))

    val best = new TopK(k)

    // Pivot bound for a node (both triangle directions, deviation-corrected).
    def pivotLB(v: Int): Double = {
      var lb = 0.0
      var p = 0
      while (p < np) {
        val dev = trie.maxDev(v)
        val a = dqp(p) - trie.hrMax(v, p) - dev
        val b = trie.hrMin(v, p) - dev - dqp(p)
        val x = math.max(a, b)
        if (x > lb) lb = x
        p += 1
      }
      lb
    }

    val pq = mutable.PriorityQueue.empty[SNode](Ordering.by[SNode, Double](_.lbO).reverse)
    pq.enqueue(SNode(trie.root, 0.0, 0.0, 0.0, ops.rootState))

    var done = false
    while (pq.nonEmpty && !done) {
      val t = pq.dequeue()
      if (stats != null) stats.nodesPopped += 1
      if (ops.monotone && t.lbO > best.dk) done = true // all remaining > d_k
      else if (t.lbP > best.dk || t.lbO > best.dk) ()  // subtree pruned; continue
      else {
        var i = trie.tidFrom(t.handle)
        val until = trie.tidUntil(t.handle)
        if (i < until) { // D_max is read only at accepting nodes
          val dm = trie.dmax(t.handle)
          while (i < until) {
            val traj = trajs(trie.tidAt(i))
            if (best.admits(ops.leafTidLB(t.refCore, dm, traj.length), traj.id)) {
              val d = measure.dist(q, traj.points)
              if (stats != null) stats.exactDistances += 1
              best.offer(traj.id, d)
            }
            i += 1
          }
        }
        trie.foreachChild(t.handle) { (z, c) =>
          val ext = ops.extend(t.state, z)
          if (!(ops.monotone && ext.lbO > best.dk)) {
            val lp = if (np > 0) pivotLB(c) else 0.0
            if (lp <= best.dk) {
              pq.enqueue(SNode(c, ext.lbO, lp, ext.refCore, ext.state))
              if (stats != null) stats.nodesPushed += 1
            }
          }
        }
      }
    }
    best.result
  }
}
