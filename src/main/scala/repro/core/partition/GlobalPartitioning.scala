package repro.core.partition

import scala.collection.immutable.ArraySeq

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD

import repro.core.{MBR, Trajectory}

/** Global partitioning strategies compared in Table VII (§V-A/B). */
sealed trait PartitionStrategy extends Serializable { def name: String }

/** REPOSE's strategy: cluster similar trajectories (geohash-granularity
  * sweep, the SOM-TC reduction of §V-B), then deal cluster members
  * round-robin so every partition receives a similar mixture.
  */
case object Heterogeneous extends PartitionStrategy { val name = "Heterogeneous" }

/** DITA/DFT-style strategy: whole clusters of similar trajectories stay in
  * the same partition (contiguous chunks of the cluster-sorted order).
  */
case object Homogeneous extends PartitionStrategy { val name = "Homogeneous" }

/** Uniform random assignment by trajectory id. */
case object RandomPartitioning extends PartitionStrategy { val name = "Random" }

/** Keys are precomputed partition ids (§V-C: Spark's `Partitioner` extension
  * point carries the strategy).
  */
final class IdPartitioner(n: Int) extends Partitioner {
  def numPartitions: Int = n
  def getPartition(key: Any): Int = key.asInstanceOf[Int]
}

object GlobalPartitioning {

  /** Finest clustering precision: 2^10 × 2^10 cells. */
  private[partition] val MaxPrecision = 10

  /** Cell sequence of a trajectory at precision `p` (consecutive-deduped),
    * the geohash encoding of §V-B; coarser keys are bit-shifts of finer ones.
    */
  private[partition] def cellSeq(t: Trajectory, mbr: MBR, p: Int): Array[Int] = {
    val side = 1 << p
    val u = math.max(math.max(mbr.width, mbr.height), 1e-9)
    val out = new scala.collection.mutable.ArrayBuffer[Int](t.length)
    var i = 0
    while (i < t.length) {
      val pt = t.points(i)
      var cx = ((pt.x - mbr.minX) / u * side).toInt
      var cy = ((pt.y - mbr.minY) / u * side).toInt
      if (cx >= side) cx = side - 1
      if (cy >= side) cy = side - 1
      if (cx < 0) cx = 0
      if (cy < 0) cy = 0
      val c = (cx << 16) | cy
      if (out.isEmpty || out.last != c) out += c
      i += 1
    }
    out.toArray
  }

  private def coarsen(seq: Array[Int]): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuffer[Int](seq.length)
    var i = 0
    while (i < seq.length) {
      val cx = (seq(i) >>> 16) >> 1
      val cy = (seq(i) & 0xffff) >> 1
      val c = (cx << 16) | cy
      if (out.isEmpty || out.last != c) out += c
      i += 1
    }
    out.toArray
  }

  /** Cluster keys per §V-B, on the driver: from the cell sequences at
    * `MaxPrecision`, coarsen one precision at a time and stop at the finest
    * precision with at most max(numPartitions, N / numPartitions) distinct
    * sequences, or at precision 1. Returns every trajectory's key (its cell
    * sequence at that precision), in input order.
    */
  def clusterKeys(finest: Array[Array[Int]], numPartitions: Int): Array[Array[Int]] = {
    val target = math.max(numPartitions, finest.length / math.max(numPartitions, 1))
    def clusters(keys: Array[Array[Int]]): Int =
      keys.iterator.map(ArraySeq.unsafeWrapArray(_)).toSet.size
    var p = MaxPrecision
    var keys = finest
    while (p > 1 && clusters(keys) > target) {
      p -= 1
      keys = keys.map(coarsen)
    }
    keys
  }

  /** `ids` in ascending order; throws `IllegalArgumentException`, naming the
    * smallest repeated id, unless they are distinct.
    */
  private[repro] def distinctSorted(ids: Array[Long]): Array[Long] = {
    val sorted = ids.sorted
    var i = 1
    while (i < sorted.length) {
      require(sorted(i) != sorted(i - 1), s"trajectory id ${sorted(i)} occurs more than once")
      i += 1
    }
    sorted
  }

  /** Assign a partition id to every trajectory under the given strategy.
    * Throws `IllegalArgumentException` on the driver if an id repeats.
    *
    * Heterogeneous/homogeneous collect each trajectory's finest cell sequence
    * in one job, cluster on the driver (`clusterKeys`) and rank the ids by
    * (cluster key, id): heterogeneous deals the ranks round-robin,
    * homogeneous cuts contiguous equal-count blocks. The returned RDD maps
    * every trajectory through the id → partition table, so the only shuffle
    * is `partitioned`'s. Random hashes the id.
    */
  def assign(
      trajs: RDD[Trajectory],
      strategy: PartitionStrategy,
      numPartitions: Int,
      mbr: MBR,
  ): RDD[(Int, Trajectory)] = strategy match {
    case RandomPartitioning =>
      distinctSorted(trajs.map(_.id).collect())
      trajs.map { t =>
        val h = scala.util.hashing.MurmurHash3.stringHash(t.id.toString)
        (math.floorMod(h, numPartitions), t)
      }
    case _ =>
      val (ids, finest) = trajs.map(t => (t.id, cellSeq(t, mbr, MaxPrecision))).collect().unzip
      val sortedIds = distinctSorted(ids)
      val keys = clusterKeys(finest, numPartitions)
      val n = ids.length
      val byKey = Array.range(0, n).sortWith { (i, j) =>
        val c = java.util.Arrays.compare(keys(i), keys(j))
        c < 0 || (c == 0 && ids(i) < ids(j))
      }
      // pidOf(r) is the partition of sortedIds(r).
      val pidOf = new Array[Int](n)
      var rank = 0
      while (rank < n) {
        val pid =
          if (strategy == Heterogeneous) rank % numPartitions
          else math.min(numPartitions - 1, (rank.toLong * numPartitions / n).toInt)
        pidOf(java.util.Arrays.binarySearch(sortedIds, ids(byKey(rank)))) = pid
        rank += 1
      }
      trajs.map(t => (pidOf(java.util.Arrays.binarySearch(sortedIds, t.id)), t))
  }

  /** Partition an assigned RDD with the custom `Partitioner` and drop keys. */
  def partitioned(
      assigned: RDD[(Int, Trajectory)],
      numPartitions: Int,
  ): RDD[Trajectory] =
    assigned.partitionBy(new IdPartitioner(numPartitions)).values
}
