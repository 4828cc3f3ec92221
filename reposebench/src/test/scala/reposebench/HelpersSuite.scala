package reposebench

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core._

class HelpersSuite extends AnyFunSuite {

  private def trajs(n: Int, seed: Long): Array[Trajectory] = {
    val rnd = new Random(seed)
    Array.tabulate(n) { i =>
      var x = rnd.nextDouble() * 10
      var y = rnd.nextDouble() * 10
      Trajectory(i.toLong, Array.fill(2 + rnd.nextInt(12)) {
        x += rnd.nextGaussian() * 0.5
        y += rnd.nextGaussian() * 0.5
        Point(x, y)
      })
    }
  }

  private def brute(ts: Array[Trajectory], q: Array[Point], k: Int, m: Measure): Answers.TopK =
    ts.map(t => (t.id, m.dist(q, t.points))).sortBy { case (id, d) => (d, id) }.take(k)

  test("the tail percentile is the highest that leaves ten samples beyond it") {
    assert(Stats.highestPercentile(19).isEmpty)
    assert(Stats.highestPercentile(20).contains(50.0))
    assert(Stats.highestPercentile(99).contains(75.0))
    assert(Stats.highestPercentile(100).contains(90.0))
    assert(Stats.highestPercentile(199).contains(90.0))
    assert(Stats.highestPercentile(200).contains(95.0))
    assert(Stats.highestPercentile(1000).contains(99.0))
    assert(Stats.beyond(100, 90) == 10)
  }

  test("percentiles are nearest-rank samples and medians interpolate") {
    val xs = (1 to 100).map(_.toDouble).reverse
    assert(Stats.percentile(xs, 90) == 90.0)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(Seq(3.0), 90) == 3.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  test("the pruned reference scan returns the exhaustive top-k for every measure") {
    val ts = trajs(300, 1L)
    val mbrs = ts.map(_.mbr)
    for (m <- Seq(Hausdorff, Frechet, DTW, ERP(Point(0, 0))); qi <- 0 until 5; k <- Seq(1, 10, 300, 400)) {
      val q = trajs(1, 100L + qi).head.points
      val got = Answers.referenceTopK(ts, mbrs, q, k, m)
      assert(got.sameElements(brute(ts, q, k, m)), s"${m.name} q$qi k$k")
    }
  }

  test("the MBR bound never exceeds the true distance") {
    val ts = trajs(200, 2L)
    val q = trajs(1, 3L).head.points
    for (m <- Seq(Hausdorff, Frechet, DTW); t <- ts)
      assert(Answers.mbrLowerBound(m, q, t.mbr) <= m.dist(q, t.points) + 1e-12, m.name)
  }

  test("merging per-partition top-k lists gives the global top-k") {
    val ts = trajs(240, 4L)
    val q = trajs(1, 5L).head.points
    val parts = ts.grouped(50).map(p => Answers.referenceTopK(p, p.map(_.mbr), q, 20, DTW)).toSeq
    assert(Answers.merge(parts, 20).sameElements(brute(ts, q, 20, DTW)))
  }

  test("the answer comparison tolerates ties but not wrong or fake results") {
    val dist = Map(1L -> 1.0, 2L -> 2.0, 3L -> 2.0, 4L -> 5.0)
    val expected = Array(1L -> 1.0, 2L -> 2.0)
    // Another id at the tied k-th distance is a correct answer.
    assert(Answers.mismatch(Array(1L -> 1.0, 3L -> 2.0), expected, dist.get).isEmpty)
    assert(Answers.mismatch(expected, expected, dist.get).isEmpty)
    assert(Answers.mismatch(Array(1L -> 1.0, 4L -> 5.0), expected, dist.get).exists(_.contains("rank 1")))
    assert(Answers.mismatch(Array(1L -> 1.0, 4L -> 2.0), expected, dist.get).exists(_.contains("id 4")))
    assert(Answers.mismatch(Array(1L -> 1.0, 9L -> 2.0), expected, dist.get).exists(_.contains("absent")))
    assert(Answers.mismatch(Array(2L -> 2.0, 2L -> 2.0), Array(2L -> 2.0, 3L -> 2.0), dist.get).contains("duplicate ids"))
    assert(Answers.mismatch(Array(1L -> 1.0), expected, dist.get).exists(_.contains("1 results")))
  }

  test("Spark call sites group into REPOSE layers") {
    assert(Layers.of("count at GlobalPartitioning.scala:80") == "partition")
    assert(Layers.of("sortByKey at GlobalPartitioning.scala:127") == "partition")
    assert(Layers.of("count at Repose.scala:152") == "rptrie")
    assert(Layers.of("collect at Repose.scala:63") == "repose")
    assert(Layers.of("takeSample at Repose.scala:100") == "repose")
    assert(Layers.of("map at TrajGen.scala:62") == "data")
    assert(Layers.of("foreachPartition at Main.scala:300") == "other")
    assert(Layers.of("") == "other")
  }

  test("self time subtracts the union of the children's intervals") {
    val parent = Span(0, "build", -1, 0L, 100L)
    val kids = Seq(Span(1, "a", 0, 10L, 30L), Span(2, "b", 0, 20L, 40L), Span(3, "c", 0, 90L, 120L))
    assert(Tracer.selfNs(parent, kids) == 100L - 30L - 10L)
    assert(Tracer.selfNs(parent, Nil) == 100L)
  }

  test("arguments default the seed to the dataset's and reject bad input") {
    val a = Main.parse(Seq("--workload", "tdrive-frechet")).toOption.get
    assert(a.seed == repro.data.Datasets.tdrive.seed && !a.trace)
    val b = Main.parse(Seq("--workload", "osm-hausdorff", "--seed", "7", "--seconds", "5", "--trace", "1")).toOption.get
    assert(b.seed == 7L && b.seconds == 5 && b.trace)
    assert(Main.parse(Seq("--workload", "nope")).isLeft)
    assert(Main.parse(Seq("--workload", "xian-dtw", "--trace", "2")).isLeft)
    assert(Main.parse(Seq("--workload", "xian-dtw", "--seed")).isLeft)
    assert(Main.parse(Nil).isLeft)
  }
}
