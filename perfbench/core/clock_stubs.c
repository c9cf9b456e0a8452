/* Host clocks for the benchmark: process CPU time for measurements,
   the monotonic clock for span timestamps and run pacing. Both are
   monotonic sources with nanosecond resolution. */
#include <time.h>
#include <caml/mlvalues.h>

static value ns_of(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

value perfbench_cpu_ns(value unit)
{
  (void)unit;
  return ns_of(CLOCK_PROCESS_CPUTIME_ID);
}

value perfbench_mono_ns(value unit)
{
  (void)unit;
  return ns_of(CLOCK_MONOTONIC);
}
