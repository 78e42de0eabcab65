// Seeded svclint-durability violation (an ack reaches the socket before the
// fsync barrier), plus a reference that keeps kBadRequest "used" for the
// wire-drift error-code check. Lexed, never compiled.

bool handle_tell(Conn& conn) {
  write_frame(conn.io, make_ok());  // acked before the append is durable
  append_record(conn);
  write_frame(conn.io, make_ok());  // after the barrier: fine
  return true;
}

void append_record(Conn& conn) {
  fsync(conn.fd);
}

void dispatch(Conn& conn, Op op) {
  switch (op) {
    case Op::kTell:
      handle_tell(conn);
      return;
  }
  write_frame(conn.io, make_error(ErrorCode::kBadRequest, "unknown op"));
}
