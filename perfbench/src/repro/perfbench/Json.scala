package repro.perfbench

/** Minimal JSON writer for the result line and the trace file. Objects are
  * `Seq[(String, Any)]` so keys keep their order. */
object Json {
  def apply(v: Any): String = {
    val sb = new StringBuilder
    write(sb, v)
    sb.toString
  }

  private def write(sb: StringBuilder, v: Any): Unit = v match {
    case null => sb ++= "null"
    case s: String => quote(sb, s)
    case b: Boolean => sb ++= b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      sb ++= d.toString
    case i: Int => sb ++= i.toString
    case l: Long => sb ++= l.toString
    case kvs: Seq[_] if kvs.nonEmpty && kvs.forall(isField) =>
      sb += '{'
      kvs.zipWithIndex.foreach { case ((k: String, x), i) =>
        if (i > 0) sb += ','
        quote(sb, k); sb += ':'; write(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      xs.zipWithIndex.foreach { case (x, i) => if (i > 0) sb += ','; write(sb, x) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"not JSON-encodable: $other")
  }

  private def isField(x: Any): Boolean = x match {
    case (_: String, _) => true
    case _ => false
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }
}
