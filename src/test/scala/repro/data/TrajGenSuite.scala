package repro.data

import repro.SparkSpec

/** Synthetic dataset generator tests: determinism, paper-preprocessing
  * invariants (length ∈ [10, 1000]), spatial span, and the Table III stats
  * pipeline with a DuckDB oracle check.
  */
class TrajGenSuite extends SparkSpec {

  private val spec = TrajGen.Spec("unit", 300, 25, 2.0, 1.5, clusters = 4, seed = 263L)

  test("generation is deterministic in (spec, id)") {
    val a = TrajGen.one(spec, 7L)
    val b = TrajGen.one(spec, 7L)
    assert(a.points.sameElements(b.points))
  }

  test("different ids give different trajectories") {
    assert(!TrajGen.one(spec, 1L).points.sameElements(TrajGen.one(spec, 2L).points))
  }

  test("lengths respect the paper's preprocessing window [10, 1000]") {
    (0L until 300L).foreach { id =>
      val len = TrajGen.one(spec, id).length
      assert(len >= 10 && len <= 1000)
    }
  }

  test("average length is near the spec") {
    val lens = (0L until 300L).map(id => TrajGen.one(spec, id).length.toDouble)
    val avg = lens.sum / lens.length
    assert(avg > spec.avgLen * 0.6 && avg < spec.avgLen * 1.6, s"avg $avg vs ${spec.avgLen}")
  }

  test("points stay within the spatial span") {
    (0L until 100L).foreach { id =>
      TrajGen.one(spec, id).points.foreach { p =>
        assert(p.x >= 0 && p.x <= spec.spanX)
        assert(p.y >= 0 && p.y <= spec.spanY)
      }
    }
  }

  test("RDD generation yields the spec cardinality with unique ids") {
    val rdd = TrajGen.generate(spark, spec, 4)
    assert(rdd.count() == 300)
    assert(rdd.map(_.id).distinct().count() == 300)
  }

  test("queries come from outside the dataset id range") {
    val qs = TrajGen.queries(spec, 5)
    assert(qs.length == 5)
    assert(qs.forall(_.id > spec.n))
  }

  test("all seven dataset analogs are defined with positive sizes") {
    assert(Datasets.all.size == 7)
    Datasets.all.foreach { s =>
      assert(s.n > 0 && s.avgLen >= 10 && s.spanX > 0 && s.spanY > 0)
    }
  }

  test("per-dataset delta settings follow the paper (§VII-A)") {
    import repro.core.{DTW, Frechet, Hausdorff}
    assert(Datasets.delta(Datasets.tdrive, Hausdorff) == 0.15)
    assert(Datasets.delta(Datasets.osm, Frechet) == 1.0)
    assert(Datasets.delta(Datasets.xian, Hausdorff) == 0.01)
    assert(Datasets.delta(Datasets.xian, DTW) == 0.03)
    assert(Datasets.delta(Datasets.chengdu, Frechet) == 0.02)
  }

  test("statsDF summary matches DuckDB (oracle)") {
    val rdd = TrajGen.generate(spark, spec, 4)
    val df = TrajGen.statsDF(spark, rdd)
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val agg = df.agg(
      count(lit(1)) as "n",
      round(avg($"len"), 4) as "avglen",
      round(max($"maxx") - min($"minx"), 4) as "spanx")
    repro.Oracle.assertEquivalent(
      agg,
      "SELECT count(*) AS n, round(avg(CAST(len AS DOUBLE)), 4) AS avglen, " +
        "round(max(CAST(maxx AS DOUBLE)) - min(CAST(minx AS DOUBLE)), 4) AS spanx FROM stats",
      "stats" -> df)
  }

  test("dataset MBR is inside the spec span") {
    val rdd = TrajGen.generate(spark, spec, 4)
    val mbr = rdd.map(_.mbr).reduce(_ union _)
    assert(mbr.minX >= 0 && mbr.maxX <= spec.spanX)
    assert(mbr.minY >= 0 && mbr.maxY <= spec.spanY)
  }
}
