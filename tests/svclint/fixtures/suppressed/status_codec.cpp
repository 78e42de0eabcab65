// The field table's one row stays out of api.md behind its suppression.
// Lexed, never compiled.

template <>
struct Table<Report> {
  static constexpr auto rows = std::tuple{
      // NOLINTNEXTLINE(svclint-wire-drift) draft counter, published with v2
      Field{"draft_counter", &Report::draft, Merge::kSum},
  };
};
