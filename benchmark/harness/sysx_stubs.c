/* Process accounting the OCaml Unix library does not expose: per-child
   resource usage from wait4(2), per-thread CPU clocks and CPU affinity. */

#define _GNU_SOURCE
#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* bench_wait4 pid nohang -> (reaped_pid, exited, code, cpu_seconds, maxrss_kb).
   reaped_pid is 0 when [nohang] is set and the child is still running.
   exited is true for a normal exit (code = exit status) and false for a
   death by signal (code = the raw signal number). */
CAMLprim value bench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, Bool_val(vnohang) ? WNOHANG : 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(5);
  Store_field(res, 0, Val_int(r));
  if (r == 0) {
    Store_field(res, 1, Val_false);
    Store_field(res, 2, Val_int(0));
    Store_field(res, 3, caml_copy_double(0.));
    Store_field(res, 4, Val_int(0));
  } else {
    double cpu = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6
                 + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    Store_field(res, 1, Val_bool(WIFEXITED(status)));
    Store_field(res, 2, Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                : WIFSIGNALED(status) ? WTERMSIG(status) : -1));
    Store_field(res, 3, caml_copy_double(cpu));
    Store_field(res, 4, Val_long(ru.ru_maxrss));
  }
  CAMLreturn(res);
}

/* The CPU-time clock of the calling thread, readable from any thread of
   the process while the calling one lives. */
CAMLprim value bench_thread_clock(value unit)
{
  clockid_t id;
  (void)unit;
  if (pthread_getcpuclockid(pthread_self(), &id) != 0) uerror("pthread_getcpuclockid", Nothing);
  return Val_long(id);
}

CAMLprim value bench_clock_seconds(value vid)
{
  struct timespec ts;
  if (clock_gettime((clockid_t)Long_val(vid), &ts) != 0) uerror("clock_gettime", Nothing);
  return caml_copy_double(ts.tv_sec + ts.tv_nsec * 1e-9);
}

CAMLprim value bench_clock_ticks(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* The CPUs this process may run on. */
CAMLprim value bench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int i, n = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) uerror("sched_getaffinity", Nothing);
  res = caml_alloc_tuple(CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1);
  Store_field(res, 0, Val_int(0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, n++, Val_int(i));
  CAMLreturn(res);
}

/* Keep the calling thread on one CPU. */
CAMLprim value bench_pin_cpu(value vcpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(vcpu), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) uerror("sched_setaffinity", Nothing);
  return Val_unit;
}
