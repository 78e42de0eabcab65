// The field table's one row, "session", is a field api.md documents.
// Lexed, never compiled.

template <>
struct Table<Report> {
  static constexpr auto rows = std::tuple{
      Field{"session", &Report::session, Merge::kKeep},
  };
};
