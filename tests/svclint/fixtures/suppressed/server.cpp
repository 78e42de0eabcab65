// The bad-corpus durability hazard carrying a justified suppression: an
// early error reply (no durable state exists yet). Lexed, never compiled.

bool handle_tell(Conn& conn) {
  // Protocol-error reply, not an ack: nothing durable exists yet.
  // NOLINTNEXTLINE(svclint-durability)
  write_frame(conn.io, make_error(ErrorCode::kFine, "bad payload"));
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
}
