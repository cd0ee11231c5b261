// Package directivecycle seeds a two-target wait cycle written as
// directives: decode's block waits on the tag scheduled on mixer, and
// mixer's block waits on the tag scheduled on decode.
package directivecycle

func work() {}

func pipeline() {
	//#omp target virtual(decode) name_as(frames)
	{
		//#omp wait(audio)
		work()
	}
	//#omp target virtual(mixer) name_as(audio)
	{
		//#omp wait(frames)
		work()
	}
}
