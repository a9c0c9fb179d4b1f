// ndp-analyze fixture: the non-test writers that keep never_set_ok.h and
// ingress_ok.cc's IngressPoolConfig quiet under never-set.
namespace ndp::fixture {
OkConfig MakeOkConfig(uint64_t bytes) {
  OkConfig cfg{.designated = 1};
  cfg.split =
      bytes * 2;
  cfg.inner.leaf = 7;
  return cfg;
}
void SizePool(IngressPoolConfig* pool) { pool->cap = 128; }
}  // namespace ndp::fixture
