// Round-trips kBadRequest only; kGhost (protocol.hpp) is left unwired. The
// op table has one row, "tell"; api.md also documents "vanish".
// Lexed, never compiled.

constexpr OpInfo kOps[] = {
    {Op::kTell, "tell", OpRole::kPrimary},
};

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
  }
  return "unknown";
}

std::optional<ErrorCode> error_code_from(std::string_view text) {
  if (text == "bad_request") return ErrorCode::kBadRequest;
  return std::nullopt;
}
