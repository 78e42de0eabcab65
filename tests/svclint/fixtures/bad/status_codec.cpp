// The field table's one row, "hidden_counter", is a wire name api.md never
// documents.
// Lexed, never compiled.

template <>
struct Table<Report> {
  static constexpr auto rows = std::tuple{
      Field{"hidden_counter", &Report::hidden, Merge::kSum},
  };
};
