package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.core.partition.{Heterogeneous, Homogeneous, RandomPartitioning}
import repro.data.{Datasets, TrajGen}

/** One runner per evaluation table (Tables III–IX). Each prints the table in
  * the paper's layout and returns the raw numbers so the bench suites can
  * assert sanity. All runners share `Harness`'s dataset cache.
  */
object Tables {
  import Harness._

  private def queriesFor(spec: TrajGen.Spec): Array[Trajectory] =
    TrajGen.queries(spec, QueryCount)

  /** Table III analog: statistics of the synthetic datasets. */
  def tableIII(spark: SparkSession): Seq[(String, Long, Double, Double, Double)] = {
    val rows = Datasets.all.map { spec =>
      val rdd = dataset(spark, spec)
      val n = rdd.count()
      val avgLen = rdd.map(_.length.toLong).fold(0L)(_ + _).toDouble / n
      (spec.name, n, avgLen, spec.spanX, spec.spanY)
    }
    printTable("Table III — dataset statistics (scaled analogs)",
      Seq("Dataset", "Cardinality", "AvgLen", "SpanX", "SpanY"),
      rows.map(r => Seq(r._1, r._2.toString, f"${r._3}%.1f", f"${r._4}%.2f", f"${r._5}%.2f")))
    rows
  }

  /** Table IV: QT/IS/IT × {Hausdorff, Fréchet, DTW} × 4 algorithms × all
    * seven datasets. `measures` allows running one distance slice at a time.
    */
  def tableIV(
      spark: SparkSession,
      measures: Seq[Measure] = Datasets.tableMeasures,
  ): Map[(String, String, String), Cell] = {
    val specs = Datasets.all
    val out = scala.collection.mutable.LinkedHashMap.empty[(String, String, String), Cell]
    for (measure <- measures; spec <- specs) {
      val qs = queriesFor(spec)
      out((measure.name, "REPOSE", spec.name)) = runReposeFull(spark, spec, measure, qs)._1
      out((measure.name, "DITA", spec.name)) =
        runDITA(spark, spec, measure, qs).getOrElse(Cell(Double.NaN, Double.NaN, Double.NaN))
      out((measure.name, "DFT", spec.name)) = runDFT(spark, spec, measure, qs)
      out((measure.name, "LS", spec.name)) = runLS(spark, spec, measure, qs)
      System.err.println(s"[TableIV] done ${measure.name} / ${spec.name}")
    }
    val names = specs.map(_.name)
    for ((metric, get) <- Seq[(String, Cell => Double)](
        ("QT (s)", _.qt), ("IS (MB)", _.isMB), ("IT (s)", _.itSec))) {
      val rows = for {
        m <- measures
        algo <- Seq("REPOSE", "DITA", "DFT", "LS")
      } yield {
        val vals = names.map(d => fmt(get(out((m.name, algo, d)))))
        Seq(metric, m.name, algo) ++ vals
      }
      printTable(s"Table IV — performance overview: $metric",
        Seq("Metric", "Distance", "Algorithm") ++ names, rows)
    }
    out.toMap
  }

  /** Table V: query time vs δ on T-drive / Xi'an / OSM (paper's δ values —
    * spans match the paper, so the sweep is identical).
    */
  def tableV(spark: SparkSession): Map[(String, Double, String), Double] = {
    val sweeps = Seq(
      (Datasets.tdrive, Seq(0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)),
      (Datasets.xian, Seq(0.005, 0.010, 0.015, 0.020, 0.025, 0.030, 0.035)),
      (Datasets.osm, Seq(0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    )
    val out = scala.collection.mutable.LinkedHashMap.empty[(String, Double, String), Double]
    for ((spec, deltas) <- sweeps; measure <- Seq[Measure](Hausdorff, Frechet); d <- deltas) {
      val qs = queriesFor(spec)
      val cell = runReposeFull(spark, spec, measure, qs, delta = d)._1
      out((spec.name, d, measure.name)) = cell.qt
    }
    for ((spec, deltas) <- sweeps) {
      printTable(s"Table V — QT vs δ on ${spec.name}",
        Seq("delta", "D_H (s)", "D_F (s)"),
        deltas.map(d => Seq(d.toString,
          fmt(out((spec.name, d, "Hausdorff"))), fmt(out((spec.name, d, "Frechet"))))))
    }
    out.toMap
  }

  /** Table VI: query time vs N_p ∈ {1,3,5,7,9,11}. */
  def tableVI(spark: SparkSession): Map[(String, Int, String), Double] = {
    val nps = Seq(1, 3, 5, 7, 9, 11)
    val specs = Seq(Datasets.tdrive, Datasets.xian, Datasets.osm)
    val out = scala.collection.mutable.LinkedHashMap.empty[(String, Int, String), Double]
    for (spec <- specs; measure <- Seq[Measure](Hausdorff, Frechet); np <- nps) {
      val qs = queriesFor(spec)
      val cell = runReposeFull(spark, spec, measure, qs, np = np)._1
      out((spec.name, np, measure.name)) = cell.qt
    }
    for (spec <- specs) {
      printTable(s"Table VI — QT vs N_p on ${spec.name}",
        Seq("N_p", "D_H (s)", "D_F (s)"),
        nps.map(np => Seq(np.toString,
          fmt(out((spec.name, np, "Hausdorff"))), fmt(out((spec.name, np, "Frechet"))))))
    }
    out.toMap
  }

  /** Table VII: partitioning strategies with the RP-Trie as local index.
    * Reports QT plus the per-partition workload-imbalance ratio (max/mean
    * exact-distance computations) — the load-balancing mechanism §V-B
    * optimizes; at laptop scale sub-50 ms query times sit inside Spark's
    * scheduling noise, so the imbalance column carries the shape signal.
    * Returns ((measure, strategy, dataset) → (qt, imbalance)).
    */
  def tableVII(spark: SparkSession): Map[(String, String, String), (Double, Double)] = {
    val specs = Seq(Datasets.tdrive, Datasets.xian, Datasets.osm)
    val strategies = Seq(Heterogeneous, Homogeneous, RandomPartitioning)
    val out = scala.collection.mutable.LinkedHashMap.empty[(String, String, String), (Double, Double)]
    for (measure <- Seq[Measure](Hausdorff, Frechet); st <- strategies; spec <- specs) {
      val qs = queriesFor(spec)
      // k = 10 here: with k near the per-partition result floor, every
      // partition computes ~k exact distances regardless of strategy and the
      // imbalance signal washes out; a small k exposes the hot partitions.
      val (cell, imb) = runReposeFull(spark, spec, measure, qs, k = 10, strategy = st)
      out((measure.name, st.name, spec.name)) = (cell.qt, imb)
    }
    for (measure <- Seq[Measure](Hausdorff, Frechet)) {
      printTable(s"Table VII — partitioning strategy (${measure.name})",
        Seq("Partitioning", "T-drive (s)", "Xi'an (s)", "OSM (s)",
            "Imb T-drive", "Imb Xi'an", "Imb OSM"),
        strategies.map { st =>
          Seq(st.name) ++
            specs.map(s => fmt(out((measure.name, st.name, s.name))._1)) ++
            specs.map(s => fmt(out((measure.name, st.name, s.name))._2))
        })
    }
    out.toMap
  }

  /** Table VIII: REPOSE vs Heter-DITA vs DITA on DTW and Fréchet. */
  def tableVIII(spark: SparkSession): Map[(String, String, String), Double] =
    heterogeneousBaseline(spark, "VIII", Seq(DTW, Frechet), "DITA",
      (spec, measure, qs, roundRobin) => runDITA(spark, spec, measure, qs, roundRobin).get)

  /** Table IX: REPOSE vs Heter-DFT vs DFT on Hausdorff and Fréchet. */
  def tableIX(spark: SparkSession): Map[(String, String, String), Double] =
    heterogeneousBaseline(spark, "IX", Seq(Hausdorff, Frechet), "DFT",
      (spec, measure, qs, roundRobin) => runDFT(spark, spec, measure, qs, roundRobin))

  /** REPOSE vs Heter-X vs X on three datasets, one table per measure, where
    * `run(spec, measure, queries, roundRobin)` runs the baseline X: with
    * round-robin (heterogeneous) partitioning for Heter-X.
    */
  private def heterogeneousBaseline(
      spark: SparkSession,
      table: String,
      measures: Seq[Measure],
      baseline: String,
      run: (TrajGen.Spec, Measure, Array[Trajectory], Boolean) => Cell,
  ): Map[(String, String, String), Double] = {
    val specs = Seq(Datasets.tdrive, Datasets.xian, Datasets.osm)
    val heter = s"Heter-$baseline"
    val out = scala.collection.mutable.LinkedHashMap.empty[(String, String, String), Double]
    for (measure <- measures; spec <- specs) {
      val qs = queriesFor(spec)
      out((measure.name, "REPOSE", spec.name)) = runReposeFull(spark, spec, measure, qs)._1.qt
      out((measure.name, heter, spec.name)) = run(spec, measure, qs, true).qt
      out((measure.name, baseline, spec.name)) = run(spec, measure, qs, false).qt
    }
    for (measure <- measures) {
      printTable(s"Table $table — heterogeneous partitioning in $baseline (${measure.name})",
        Seq("Algorithm", "T-drive (s)", "Xi'an (s)", "OSM (s)"),
        Seq("REPOSE", heter, baseline).map(a =>
          Seq(a) ++ specs.map(s => fmt(out((measure.name, a, s.name))))))
    }
    out.toMap
  }
}
