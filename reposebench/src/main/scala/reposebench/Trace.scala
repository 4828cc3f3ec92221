package reposebench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** A timed interval of the benchmark (or, for jobs and stages, of Spark).
  * Times are epoch nanoseconds; `parent` is -1 for a root span.
  */
final case class Span(id: Int, name: String, parent: Int, start: Long, end: Long) {
  def ms: Double = (end - start) / 1e6
}

/** Spans recorded around every call the benchmark makes into a layer.
  *
  * Spans stay in memory until the run ends. When tracing is off, `span` only
  * runs its body. Spark jobs started inside a span carry its id as a local
  * property, so `JobListener` can hang them under the span that caused them.
  */
final class Tracer(val on: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List(-1)
  private var sc: Option[SparkContext] = None
  // Spark reports epoch milliseconds; spans are kept on the same clock.
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def now: Long = System.nanoTime() + epochOffsetNs

  def attach(context: SparkContext): Unit = sc = Some(context)

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = spans.length
      val parent = open.head
      spans += Span(id, name, parent, now, -1L)
      open = id :: open
      sc.foreach(_.setLocalProperty(Tracer.SpanKey, id.toString))
      try body
      finally {
        spans(id) = spans(id).copy(end = now)
        open = open.tail
        sc.foreach(_.setLocalProperty(Tracer.SpanKey, if (parent < 0) null else parent.toString))
      }
    }

  def all: Seq[Span] = spans.toSeq
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq
}

object Tracer {
  val SpanKey = "reposebench.span"

  /** Duration of `s` minus the part of it that `children` cover. */
  def selfNs(s: Span, children: Seq[Span]): Long = {
    val iv = children.map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var covered = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    iv.foreach { case (a, b) =>
      if (a > curB) { covered += math.max(0L, curB - curA); curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    covered += math.max(0L, curB - curA)
    (s.end - s.start) - covered
  }
}

/** The REPOSE module a Spark call site belongs to. A call site reads like
  * `count at GlobalPartitioning.scala:80`; the trie-building job is the
  * `count` that materializes the index in `Repose.scala`.
  */
object Layers {
  def of(callSite: String): String = {
    val at = callSite.lastIndexOf(" at ")
    val file = if (at < 0) "" else callSite.substring(at + 4).takeWhile(_ != ':')
    file match {
      case "GlobalPartitioning.scala"                     => "partition"
      case "Repose.scala" if callSite.startsWith("count ") => "rptrie"
      case "Repose.scala"                                 => "repose"
      case "TrajGen.scala"                                => "data"
      case _                                              => "other"
    }
  }
}

/** What Spark reports for one stage. Times in epoch ms, CPU in ns. */
final class StageRecord(val name: String) {
  var submitted = 0L
  var completed = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var shuffleBytes = 0L
  var maxTaskMs = 0L
  def wallMs: Long = completed - submitted
}

final class JobRecord(val span: Int, val name: String, val stageIds: Seq[Int]) {
  var start = 0L
  var end = 0L
}

/** Records jobs, stages and task metrics from Spark's listener bus. */
final class JobListener extends SparkListener {
  val jobs = mutable.LinkedHashMap.empty[Int, JobRecord]
  val stages = mutable.HashMap.empty[Int, StageRecord]
  private var events = 0L

  private def stage(id: Int, name: String): StageRecord =
    stages.getOrElseUpdate(id, new StageRecord(name))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    events += 1
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt).getOrElse(-1)
    val result = e.stageInfos.maxBy(_.stageId)
    e.stageInfos.foreach(s => stage(s.stageId, s.name))
    val j = new JobRecord(span, result.name, e.stageIds)
    j.start = e.time
    jobs(e.jobId) = j
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    events += 1
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    events += 1
    val s = stage(e.stageInfo.stageId, e.stageInfo.name)
    s.submitted = e.stageInfo.submissionTime.getOrElse(0L)
    s.completed = e.stageInfo.completionTime.getOrElse(0L)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    events += 1
    val s = stage(e.stageId, "")
    s.maxTaskMs = math.max(s.maxTaskMs, e.taskInfo.duration)
    Option(e.taskMetrics).foreach { m =>
      s.cpuNs += m.executorCpuTime
      s.gcMs += m.jvmGCTime
      s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Waits until every job seen has ended and the bus has been quiet for a
    * moment: an action returns only after Spark has posted all its events.
    */
  def drain(): Unit = {
    val deadline = System.nanoTime() + 30L * 1000000000L
    var last = -1L
    var settled = false
    while (!settled && System.nanoTime() < deadline) {
      val (n, open) = synchronized((events, jobs.values.exists(_.end == 0L)))
      settled = n == last && !open
      last = n
      if (!settled) Thread.sleep(100)
    }
  }

  /** Stages of the jobs that `span` caused. */
  def stagesOf(span: Int): Seq[StageRecord] = synchronized {
    jobsOf(span).flatMap(_.stageIds).distinct.flatMap(stages.get)
  }

  def jobsOf(span: Int): Seq[JobRecord] = synchronized(jobs.values.filter(_.span == span).toSeq)
}
