// pinlint fixture: D3 raw allocation, plus one inline-allowed call and the
// simulator-API shapes that must NOT fire. Never compiled.
#include <cstdlib>

struct Widget {
  int x;
  Widget(const Widget&) = delete;  // `= delete` is not a deallocation
};

struct Heap {
  void* malloc(unsigned long n);  // declaration: the simulator's own API
};

Widget* make() {
  return new Widget();
}

void destroy(Widget* w) {
  delete w;
}

void* grab() {
  void* p = malloc(64);
  return p;
}

void drop(void* p) {
  free(p);
}

void* qualified() {
  void* p = std::malloc(64);  // namespace-qualified libc is still libc
  std::free(p);
  return ::calloc(4, 16);  // so is the global scope
}

void* returned() {
  return malloc(16);  // `return` is no return type
}

void* Heap::malloc(unsigned long n) {  // out-of-class definition: API
  return heap_storage(n);
}

void* simulated(Heap& heap) {
  return heap.malloc(64);  // member call: MallocSim idiom, not libc
}

void* sanctioned() {
  void* p = malloc(32);  // pinlint: allow(D3: C-API interop shim)
  return p;
}
