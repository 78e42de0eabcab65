// Conforming daemon: the fsync barrier dominates every frame write and the
// one error code round-trips and is emitted. Lexed, never compiled.

bool handle_tell(Conn& conn) {
  const std::string sid = require_string(conn.request, "session");
  fsync(conn.fd);
  write_frame(conn.io, make_ok());
  return true;
}

void dispatch(Conn& conn, Op op) {
  switch (op) {
    case Op::kTell:
      handle_tell(conn);
      return;
  }
  write_frame(conn.io, make_error(ErrorCode::kFine, "unknown op"));
}
