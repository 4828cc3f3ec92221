package reposebench

import scala.collection.mutable

import repro.core.{Measure, Point, Repose}
import repro.core.search.{BoundsOps, LocalSearch}

/** Spark-free measurements of single layers over an index's collected
  * partitions, all on one thread. They use only public calls, so internal
  * refactors of the trie and the search leave them compiling.
  */
final class Probes(idx: Repose.Index, qs: Array[Array[Point]], k: Int) {
  private val measure: Measure = idx.measure
  private val parts = idx.rdd.collect()

  /** Per-query averages of one replay of `LocalSearch.topK` over every
    * partition, plus the partitions' work balance.
    */
  final case class Replay(
      localMs: Double,
      slowestPartMs: Double,
      popped: Double,
      pushed: Double,
      exact: Double,
      imbalance: Double,
  )

  /** Replays the search for the first `n` queries, after one untimed pass
    * over the same queries.
    */
  def replay(n: Int): Replay = {
    val qs = this.qs.take(n)
    def pass(): Replay = {
      val perPartExact = new Array[Long](parts.length)
      val stats = new LocalSearch.Stats
      var totalNs = 0L
      var slowestNs = 0L
      qs.foreach { q =>
        var slowest = 0L
        parts.indices.foreach { p =>
          val before = stats.exactDistances
          val t0 = System.nanoTime()
          LocalSearch.topK(parts(p).index, parts(p).trajs, q, k, stats)
          val ns = System.nanoTime() - t0
          totalNs += ns
          slowest = math.max(slowest, ns)
          perPartExact(p) += stats.exactDistances - before
        }
        slowestNs += slowest
      }
      val nq = qs.length.toDouble
      val meanExact = perPartExact.sum.toDouble / perPartExact.length
      Replay(totalNs / 1e6 / nq, slowestNs / 1e6 / nq, stats.nodesPopped / nq,
        stats.nodesPushed / nq, stats.exactDistances / nq,
        if (meanExact == 0) 1.0 else perPartExact.max / meanExact)
    }
    pass()
    pass()
  }

  /** Nanoseconds per node of a depth-first walk that visits every node's
    * children and trajectory ids, with no bounds computed. Median of three
    * walks after a warm one.
    */
  def walkNsPerNode(): Double = {
    def walk(): Double = {
      var nodes = 0L
      var tids = 0L
      val t0 = System.nanoTime()
      parts.foreach { part =>
        val trie = part.index
        val stack = mutable.Stack(trie.root)
        while (stack.nonEmpty) {
          val v = stack.pop()
          nodes += 1
          tids += trie.tids(v).length
          trie.foreachChild(v)((_, c) => stack.push(c))
        }
      }
      val ns = (System.nanoTime() - t0).toDouble
      require(tids == parts.map(_.trajs.length.toLong).sum, "walk missed trajectories")
      ns / nodes
    }
    walk()
    Stats.median(Seq.fill(3)(walk()))
  }

  /** Mean nanoseconds of one `BoundsOps.extend` call: a full expansion of
    * every trie for the first query, divided by its calls (the walk itself is
    * a small part). One expansion after a warm one: on OSM each takes ~1 s.
    */
  def extendNs(): Double = {
    val q = qs.head
    def expand(): Double = {
      var calls = 0L
      val t0 = System.nanoTime()
      parts.foreach { part =>
        val trie = part.index
        val ops = BoundsOps.forMeasure(measure, trie.grid, q)
        val stack = mutable.Stack((trie.root, ops.rootState))
        while (stack.nonEmpty) {
          val (v, s) = stack.pop()
          trie.foreachChild(v) { (z, c) =>
            calls += 1
            stack.push((c, ops.extend(s, z).state))
          }
        }
      }
      (System.nanoTime() - t0).toDouble / math.max(calls, 1L)
    }
    expand()
    expand()
  }

  /** `Measure.dist` on fixed pairs (each query against an id-strided sample
    * of the data): (ns per DP cell, ns per pair). Median of three after a
    * warm pass.
    */
  def distCost(): (Double, Double) = {
    val data = parts.flatMap(_.trajs).sortBy(_.id)
    val sample = data.indices.by(math.max(1, data.length / 40)).map(data(_).points)
    val cells = (for (q <- qs; t <- sample) yield q.length.toLong * t.length).sum
    val pairs = qs.length * sample.length
    var sink = 0.0
    def pass(): Double = {
      val t0 = System.nanoTime()
      qs.foreach(q => sample.foreach(t => sink += measure.dist(q, t)))
      (System.nanoTime() - t0).toDouble
    }
    pass()
    val ns = Stats.median(Seq.fill(3)(pass()))
    require(!sink.isNaN, "distance kernel returned NaN")
    (ns / cells, ns / pairs)
  }
}
