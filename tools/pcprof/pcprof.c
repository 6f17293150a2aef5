/*
 * pcprof: a sampling program-counter profiler loaded with LD_PRELOAD.
 *
 * A POSIX timer on CLOCK_MONOTONIC raises SIGPROF every PCPROF_PERIOD_US
 * microseconds (default 1000); the handler appends the interrupted program
 * counter to a fixed buffer. At exit every sample is resolved to the ELF
 * object that maps it and written as one line,
 *
 *     <object path> <link-time address, hex>
 *
 * to PCPROF_OUT (default pcprof.<pid>.txt), ready for symbolize.py. Each
 * process that loads the shim writes its own file; a path in PCPROF_OUT
 * gets ".<pid>" appended when the file already exists.
 *
 * Build:  gcc -O2 -shared -fPIC -o pcprof.so pcprof.c -lrt
 * Use:    LD_PRELOAD=$PWD/pcprof.so PCPROF_OUT=prof.txt ./program args...
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 21)

static uintptr_t samples[MAX_SAMPLES];
/* Claimed with atomic adds: the timer's signal may land on any thread. */
static unsigned nsamples;
static timer_t timer;
static int armed;

static uintptr_t pc_of(void *uctx) {
    ucontext_t *uc = uctx;
#if defined(__x86_64__)
    return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pcprof: unsupported architecture"
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    unsigned i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = pc_of(uctx);
}

__attribute__((constructor)) static void pcprof_start(void) {
    long period_us = 1000;
    const char *p = getenv("PCPROF_PERIOD_US");
    if (p && atol(p) > 0)
        period_us = atol(p);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        return;
    struct itimerspec its;
    its.it_interval.tv_sec = period_us / 1000000;
    its.it_interval.tv_nsec = (period_us % 1000000) * 1000;
    its.it_value = its.it_interval;
    if (timer_settime(timer, 0, &its, NULL) == 0)
        armed = 1;
}

/* One sample being resolved by dl_iterate_phdr. */
struct lookup {
    uintptr_t pc;
    const char *path;
    uintptr_t addr;
};

static int find_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    struct lookup *l = data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD)
            continue;
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (l->pc >= lo && l->pc < lo + ph->p_memsz) {
            l->path = info->dlpi_name;
            l->addr = l->pc - info->dlpi_addr;
            return 1;
        }
    }
    return 0;
}

__attribute__((destructor)) static void pcprof_stop(void) {
    if (!armed)
        return;
    armed = 0;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = '\0';
    char path[4200];
    const char *out = getenv("PCPROF_OUT");
    if (out && *out) {
        snprintf(path, sizeof path, "%s", out);
        if (access(path, F_OK) == 0)
            snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    } else {
        snprintf(path, sizeof path, "pcprof.%d.txt", (int)getpid());
    }
    FILE *f = fopen(path, "w");
    if (!f) {
        fprintf(stderr, "pcprof: cannot write %s\n", path);
        return;
    }
    unsigned taken = __atomic_load_n(&nsamples, __ATOMIC_RELAXED);
    unsigned total = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned i = 0; i < total; i++) {
        struct lookup l = {samples[i], NULL, samples[i]};
        dl_iterate_phdr(find_object, &l);
        const char *obj = !l.path ? "?" : (*l.path ? l.path : exe);
        fprintf(f, "%s %#lx\n", obj, (unsigned long)l.addr);
    }
    fclose(f);
    if (taken > total)
        fprintf(stderr, "pcprof: buffer full, %u samples dropped\n", taken - total);
}
