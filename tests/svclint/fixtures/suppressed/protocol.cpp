// Round-trips kFine; kGhost stays unwired behind its suppression. The op
// table's one row, "tell", is the op api.md documents.
// Lexed, never compiled.

constexpr OpInfo kOps[] = {
    {Op::kTell, "tell", OpRole::kPrimary},
};

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kFine: return "fine";
  }
  return "unknown";
}

std::optional<ErrorCode> error_code_from(std::string_view text) {
  if (text == "fine") return ErrorCode::kFine;
  return std::nullopt;
}
