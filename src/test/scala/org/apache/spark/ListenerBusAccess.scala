package org.apache.spark

/** Test access to the driver's listener bus, which is `private[spark]`. */
object ListenerBusAccess {
  /** Waits until every event posted so far has reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
