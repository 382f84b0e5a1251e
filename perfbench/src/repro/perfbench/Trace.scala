package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced interval. Times are epoch nanoseconds so driver spans and Spark
  * task spans (which Spark reports in epoch milliseconds) share one axis. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder, wrapped around calls into the program's layers
  * from the benchmark's side. Spans are written out when the run ends. */
final class Tracer(sc: SparkContext) {
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 1
  val tasks = new TaskListener

  private def now: Long = System.nanoTime() + epochOffsetNs

  /** Runs `body` inside a span named `name`, child of the enclosing span.
    * Spark jobs submitted inside carry the span id, so their tasks become
    * its children. */
  def span[A](name: String)(body: => A): (A, Span) = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(0)
    stack = id :: stack
    val prevProp = sc.getLocalProperty(TaskListener.SpanProp)
    sc.setLocalProperty(TaskListener.SpanProp, id.toString)
    val start = now
    try {
      val a = body
      val s = Span(id, parent, name, start, now)
      spans += s
      (a, s)
    } finally {
      sc.setLocalProperty(TaskListener.SpanProp, prevProp)
      stack = stack.tail
    }
  }

  /** A top-level span around a Spark serve: the task listener is registered
    * only for its duration, and all of the serve's events are delivered
    * before it returns. */
  def serveSpan[A](name: String)(body: => A): (A, Span) = {
    sc.addSparkListener(tasks)
    try span(name)(body)
    finally { tasks.drain(sc); sc.removeSparkListener(tasks) }
  }

  /** Driver spans plus one child span per Spark task and stage. */
  def allSpans: Seq[Span] = {
    val ids = spans.map(_.id).toSet
    var id = nextId
    def fresh(): Int = { id += 1; id }
    val stageSpans = tasks.stages.asScala.toSeq.flatMap { st =>
      tasks.spanOfStage(st.stageId).filter(ids.contains).map { p =>
        Span(fresh(), p, s"spark.stage.${st.stageId}", st.startMs * 1000000L, st.endMs * 1000000L)
      }
    }
    val taskSpans = tasks.tasks.asScala.toSeq.flatMap { t =>
      tasks.spanOfStage(t.stageId).filter(ids.contains).map { p =>
        Span(fresh(), p, s"spark.task.${t.stageId}.${t.index}", t.launchMs * 1000000L,
          t.finishMs * 1000000L)
      }
    }
    spans.toSeq ++ stageSpans ++ taskSpans
  }
}

/** Task and stage timings from Spark's listener bus. Registered by the
  * benchmark; jobs are attributed to the span that was open when they were
  * submitted (via a local property). */
final class TaskListener extends SparkListener {
  import TaskListener._

  val tasks = new ConcurrentLinkedQueue[TaskTime]
  val stages = new ConcurrentLinkedQueue[StageTime]
  private val stageSpan = new java.util.concurrent.ConcurrentHashMap[Int, Int]
  private val markerJobs = new java.util.concurrent.ConcurrentHashMap[Int, String]
  @volatile private var markerSeen: String = null

  def spanOfStage(stageId: Int): Option[Int] = Option(stageSpan.get(stageId))

  def stagesOf(spanId: Int): Seq[StageTime] =
    stages.asScala.toSeq.filter(st => spanOfStage(st.stageId).contains(spanId))

  def tasksOf(stageId: Int): Seq[TaskTime] = tasks.asScala.toSeq.filter(_.stageId == stageId)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProp))).map(_.toInt)
    span.foreach(s => e.stageIds.foreach(st => stageSpan.put(st, s)))
    Option(e.properties).flatMap(p => Option(p.getProperty(MarkerProp)))
      .foreach(m => markerJobs.put(e.jobId, m))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(markerJobs.get(e.jobId)).foreach(m => markerSeen = m)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val i = e.stageInfo
    for (s <- i.submissionTime; c <- i.completionTime) stages.add(StageTime(i.stageId, s, c))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val runMs = Option(e.taskMetrics).map(_.executorRunTime).getOrElse(0L)
    tasks.add(TaskTime(e.stageId, e.taskInfo.index, e.taskInfo.launchTime,
      e.taskInfo.finishTime, runMs))
  }

  /** Waits until every event posted before now has been delivered: runs a
    * marker job and waits for its end event (the bus delivers in order). */
  def drain(sc: SparkContext): Unit = {
    val token = java.util.UUID.randomUUID().toString
    sc.setLocalProperty(SpanProp, null)
    sc.setLocalProperty(MarkerProp, token)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerProp, null)
    val deadline = System.nanoTime() + 10L * 1000000000L
    while (markerSeen != token && System.nanoTime() < deadline) Thread.sleep(5)
  }
}

object TaskListener {
  val SpanProp = "perfbench.span"
  val MarkerProp = "perfbench.marker"

  final case class TaskTime(stageId: Int, index: Int, launchMs: Long, finishMs: Long,
                            runMs: Long)
  final case class StageTime(stageId: Int, startMs: Long, endMs: Long)
}
